"""Audio waveform -> log-mel spectrogram -> time-axis patches, plus SpecAugment.

The front end has one configuration, :data:`MEL`: a hop of 320 samples, so
that 10 s at 32 kHz yields exactly 1000 frames of 64 mel bins (the shape
every downstream dimension is derived from); the 64 triangular filters use
the HTK mel scale, normalized to unit area.  Frames are centered via reflect
padding, so the frame count is ceil(num_samples / hop).  Spectrograms are
plain (T_frames, n_mels) float64 arrays.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import ConfigError, DataFormatError, DomainError


@dataclass(frozen=True)
class MelConfig:
    """The front end's constants; :data:`MEL` is the one instance read."""

    sample_rate: int = 32000
    n_fft: int = 1024
    win_length: int = 1024
    hop: int = 320
    n_mels: int = 64
    fmin: float = 0.0
    fmax: float = 16000.0
    log_floor: float = 1e-10


MEL = MelConfig()


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank() -> np.ndarray:
    """(n_mels, n_fft//2 + 1) triangular filters, each normalized to unit area
    in Hz: one read-only array, built on the first call."""
    n_bins = MEL.n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * MEL.sample_rate / MEL.n_fft
    edges = mel_to_hz(np.linspace(hz_to_mel(MEL.fmin), hz_to_mel(MEL.fmax), MEL.n_mels + 2))
    fb = np.zeros((MEL.n_mels, n_bins))
    for i in range(MEL.n_mels):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (fft_freqs - lo) / (center - lo)
        falling = (hi - fft_freqs) / (hi - center)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        fb[i] = tri * (2.0 / (hi - lo))
    fb.flags.writeable = False
    return fb


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def log_mel(waveform: np.ndarray) -> np.ndarray:
    """Magnitude STFT -> mel projection -> log with floor clamp.

    The waveform must be 1-d at ``MEL.sample_rate``; the result is its
    (T_frames, n_mels) log-mel frames.  Pure silence maps every cell to
    log(log_floor).
    """
    x = np.asarray(waveform, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DomainError(f"waveform must be non-empty and 1-d, got shape {x.shape}")
    pad = MEL.win_length // 2
    if x.size <= pad:
        raise DomainError(f"waveform of {x.size} samples too short for centered framing")
    padded = np.pad(x, pad, mode="reflect")

    n_frames = math.ceil(x.size / MEL.hop)
    window = _hann_periodic(MEL.win_length)
    starts = np.arange(n_frames) * MEL.hop
    idx = starts[:, None] + np.arange(MEL.win_length)[None, :]
    frames = padded[idx] * window
    spectrum = np.abs(np.fft.rfft(frames, n=MEL.n_fft, axis=1))
    mel = spectrum @ mel_filterbank().T
    return np.log(np.maximum(mel, MEL.log_floor))


FRAMES_PER_PATCH = 4


def patchify(frames: np.ndarray) -> np.ndarray:
    """Group consecutive frames into flattened non-overlapping patches.

    A (T, n_mels) spectrogram becomes (T // FRAMES_PER_PATCH,
    FRAMES_PER_PATCH * n_mels); trailing frames that do not fill a patch are
    dropped.
    """
    t, n_mels = frames.shape
    if t < FRAMES_PER_PATCH:
        raise DomainError(f"{t} frames cannot form a {FRAMES_PER_PATCH}-frame patch")
    n_patches = t // FRAMES_PER_PATCH
    trimmed = frames[: n_patches * FRAMES_PER_PATCH]
    return trimmed.reshape(n_patches, FRAMES_PER_PATCH * n_mels)


@dataclass(frozen=True)
class SpecAugmentPolicy:
    """SpecAugment's one mild policy, read as :data:`SPEC_AUGMENT`."""

    n_time_masks: int = 2
    max_time_width: int = 64
    n_freq_masks: int = 2
    max_freq_width: int = 8


SPEC_AUGMENT = SpecAugmentPolicy()


def spec_augment(frames: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Mask random :data:`SPEC_AUGMENT` bands, filling with the spectrogram mean.

    Draw order is fixed (time masks first, then frequency; width before
    start), so a given rng state determines the result exactly.  Shapes never
    change and unmasked cells are left bit-identical.
    """
    t, f = frames.shape
    if SPEC_AUGMENT.max_time_width > t or SPEC_AUGMENT.max_freq_width > f:
        raise ConfigError(
            f"mask widths ({SPEC_AUGMENT.max_time_width}, {SPEC_AUGMENT.max_freq_width}) "
            f"exceed spectrogram extents ({t}, {f})"
        )
    out = frames.copy()
    fill = frames.mean()
    for _ in range(SPEC_AUGMENT.n_time_masks):
        width = int(rng.integers(0, SPEC_AUGMENT.max_time_width + 1))
        start = int(rng.integers(0, t - width + 1))
        out[start : start + width, :] = fill
    for _ in range(SPEC_AUGMENT.n_freq_masks):
        width = int(rng.integers(0, SPEC_AUGMENT.max_freq_width + 1))
        start = int(rng.integers(0, f - width + 1))
        out[:, start : start + width] = fill
    return out


def read_wav(path, expected_rate: int) -> np.ndarray:
    """Read a single-channel PCM16 or float32 WAV into float64 samples.

    PCM16 samples are scaled by 1/32768 into [-1, 1); float32 samples are
    returned as stored, unscaled.  A sample rate other than ``expected_rate``
    is a ConfigError.  A file that does not parse as a WAV, or whose data
    ends before its header says, is a DataFormatError naming it; chunks that
    scipy does not know are skipped.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", wavfile.WavFileWarning)
            warnings.filterwarnings("ignore", r"Chunk \(non-data\) not understood",
                                    wavfile.WavFileWarning)
            rate, samples = wavfile.read(path)
    except OSError:
        raise  # a file that cannot be opened or read names itself
    except Exception as exc:  # scipy fails on malformed headers in many ways
        raise DataFormatError(f"{path}: not a readable WAV file: {exc}") from exc
    if samples.ndim != 1:
        raise DataFormatError(f"{path}: expected mono audio, got {samples.shape[1]} channels")
    if rate != expected_rate:
        raise ConfigError(f"{path}: sample rate {rate} != required {expected_rate}")
    if samples.dtype == np.int16:
        return samples.astype(np.float64) / 32768.0
    if samples.dtype == np.float32:
        return samples.astype(np.float64)
    raise DataFormatError(f"{path}: unsupported sample format {samples.dtype}")
