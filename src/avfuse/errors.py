"""Exception types shared across the package.

Everything derives from AvfuseError so callers can catch the whole family;
the Value/OS subclassing keeps generic handlers working too.
"""


class AvfuseError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AvfuseError, ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class DomainError(AvfuseError, ValueError):
    """Input values are outside an operation's domain (empty axis, all-masked row, ...)."""


class ConfigError(AvfuseError, ValueError):
    """A configuration object or a user-supplied value is invalid.

    ``problems`` carries every issue found so they can be reported at once.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class UsageError(AvfuseError, ValueError):
    """An API was called in an unsupported way (e.g. backward on a non-scalar)."""


class DataFormatError(AvfuseError, OSError):
    """A file on disk does not match its declared binary or text format."""


class ValidationError(ConfigError):
    """User-supplied data (manifest, run config, CLI flags) failed validation."""


class TrainingError(AvfuseError, RuntimeError):
    """Training aborted (non-finite loss or gradient)."""
