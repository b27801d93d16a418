"""Write WAV files for tests: the package only reads them."""

import numpy as np
from scipy.io import wavfile


def write_wav(path, samples: np.ndarray, rate: int) -> None:
    """Write ``samples`` as a single-channel float32 WAV at ``rate``."""
    wavfile.write(path, rate, np.asarray(samples, dtype=np.float32))
