import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from avfuse import frontend as F
from avfuse.errors import ConfigError, DataFormatError, DomainError
from wav_files import write_wav


def unpatchify(patches: np.ndarray, n_mels: int, frames_per_patch: int = F.FRAMES_PER_PATCH) -> np.ndarray:
    """Inverse of patchify on the retained frames."""
    n_patches = patches.shape[0]
    return patches.reshape(n_patches * frames_per_patch, n_mels)


class FixedDraws:
    """rng stub: hands out a scripted sequence of integers() results."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, lo, hi):
        v = self.values.pop(0)
        assert lo <= v < hi
        return v


class TestLogMel:
    def test_silence_hits_log_floor_everywhere(self):
        spec = F.log_mel(np.zeros(32000 * 10))
        assert np.all(spec == math.log(1e-10))

    def test_ten_second_clip_gives_1000x64(self):
        assert F.log_mel(np.zeros(320000)).shape == (1000, 64)

    def test_frame_count_is_ceil(self):
        spec = F.log_mel(np.zeros(320001))
        assert spec.shape[0] == math.ceil(320001 / F.MelConfig().hop)

    def test_tone_argmax_matches_mel_oracle(self):
        t = np.arange(32000) / 32000.0
        tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        observed = int(np.argmax(F.log_mel(tone).mean(axis=0)))

        # independent oracle: centers straight from the HTK mel formula
        def mel(f):
            return 2595.0 * math.log10(1.0 + f / 700.0)

        def inv(m):
            return 700.0 * (10 ** (m / 2595.0) - 1.0)

        edges = [inv(mel(0.0) + k * (mel(16000.0) - mel(0.0)) / 65) for k in range(66)]
        centers = edges[1:-1]
        expected = min(range(64), key=lambda i: abs(centers[i] - 1000.0))
        assert observed == expected

    def test_determinism_bit_exact(self, rng):
        wave = rng.normal(size=48000)
        assert np.array_equal(F.log_mel(wave), F.log_mel(wave.copy()))

    def test_energy_monotonicity(self, rng):
        wave = rng.normal(size=32000) * 0.1
        base = F.log_mel(wave)
        louder = F.log_mel(3.0 * wave)
        assert np.all(louder >= base)

    def test_wrong_input_rejected(self):
        with pytest.raises(DomainError):
            F.log_mel(np.zeros((2, 100)))
        with pytest.raises(DomainError):
            F.log_mel(np.zeros(10))  # shorter than half a window

    def test_filterbank_is_built_once_and_read_only(self):
        fb = F.mel_filterbank()
        assert F.mel_filterbank() is fb
        assert fb.shape == (64, 513) and not fb.flags.writeable


# log_mel and patchify of 1.5 s of seeded noise: SHA-256 of the float64 bytes.
# OpenBLAS splits the mel product by thread count, which moves low bits, so
# the digests are computed in a child process held to one BLAS thread.
PIN_SCRIPT = """
import hashlib, numpy as np
from avfuse import frontend as F
frames = F.log_mel(np.random.default_rng(2025).normal(size=48000) * 0.1)
print(frames.shape, F.patchify(frames).shape)
print(hashlib.sha256(frames.tobytes()).hexdigest())
print(hashlib.sha256(F.patchify(frames).tobytes()).hexdigest())
"""


def test_frontend_bits_are_pinned():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(F.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", PIN_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == [
        "(150, 64) (37, 256)",
        "30af97c73bd87a9172225e63ded219bb3c5bdd520ea722c86683ffac470c74e8",
        "0b6a5297cfb1824e6d9c5b98443c558555c9dff94820f72cedc05f2d91c7ba17",
    ]


class TestPatchify:
    def test_patch_geometry_is_250x256(self):
        patches = F.patchify(np.zeros((1000, 64)))
        assert patches.shape == (250, 256)

    def test_remainder_dropped(self, rng):
        frames = rng.normal(size=(7, 64))
        patches = F.patchify(frames)
        assert patches.shape == (1, 256)

    def test_patch_reconstructs_frames(self, rng):
        frames = rng.normal(size=(12, 64))
        patches = F.patchify(frames)
        for k in range(3):
            np.testing.assert_array_equal(
                patches[k].reshape(4, 64), frames[4 * k : 4 * k + 4]
            )

    def test_unpatchify_round_trip(self, rng):
        frames = rng.normal(size=(10, 64))
        patches = F.patchify(frames)
        np.testing.assert_array_equal(unpatchify(patches, 64), frames[:8])

    def test_too_few_frames(self):
        with pytest.raises(DomainError):
            F.patchify(np.zeros((3, 64)))


class TestSpecAugment:
    """Against the one policy, ``SPEC_AUGMENT``."""

    P = F.SPEC_AUGMENT

    def _spec(self, rng, t=100, f=16):
        return rng.normal(size=(t, f))

    def test_forced_full_width_time_band(self, rng):
        spec = self._spec(rng, t=self.P.max_time_width, f=self.P.max_freq_width)
        # the first time mask spans every frame; every other mask is 0 wide
        draws = [self.P.max_time_width, 0] + [0, 0] * (self.P.n_time_masks - 1
                                                       + self.P.n_freq_masks)
        out = F.spec_augment(spec, FixedDraws(draws))
        assert np.all(out == spec.mean())

    def test_masked_cells_match_counting_oracle(self, rng):
        t, f = 100, 16
        spec = self._spec(rng, t, f)
        out = F.spec_augment(spec, np.random.default_rng(77))

        # replay the documented draw order to reconstruct the union mask
        replay = np.random.default_rng(77)
        mask = np.zeros((t, f), dtype=bool)
        for _ in range(self.P.n_time_masks):
            w = int(replay.integers(0, self.P.max_time_width + 1))
            s = int(replay.integers(0, t - w + 1))
            mask[s : s + w, :] = True
        for _ in range(self.P.n_freq_masks):
            w = int(replay.integers(0, self.P.max_freq_width + 1))
            s = int(replay.integers(0, f - w + 1))
            mask[:, s : s + w] = True

        fill = spec.mean()
        assert mask.any() and not mask.all()
        assert np.all(out[mask] == fill)
        assert np.array_equal(out[~mask], spec[~mask])
        assert out.shape == spec.shape

    def test_width_exceeding_extent_rejected(self, rng):
        fits = (self.P.max_time_width, self.P.max_freq_width)
        F.spec_augment(self._spec(rng, *fits), np.random.default_rng(0))
        for short in ((fits[0] - 1, fits[1]), (fits[0], fits[1] - 1)):
            with pytest.raises(ConfigError):
                F.spec_augment(self._spec(rng, *short), np.random.default_rng(0))

    def test_deterministic_given_seed(self, rng):
        spec = self._spec(rng)
        a = F.spec_augment(spec, np.random.default_rng(5))
        b = F.spec_augment(spec, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestWavIO:
    def test_float32_round_trip(self, tmp_path, rng):
        wave = rng.normal(size=1000).astype(np.float32) * 0.1
        path = tmp_path / "w.wav"
        write_wav(path, wave, 32000)
        back = F.read_wav(path, expected_rate=32000)
        np.testing.assert_allclose(back, wave.astype(np.float64), atol=0)

    def test_int16_scaling(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "pcm.wav"
        wavfile.write(path, 32000, np.array([0, 16384, -32768], dtype=np.int16))
        back = F.read_wav(path, 32000)
        np.testing.assert_allclose(back, [0.0, 0.5, -1.0])

    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "w.wav"
        write_wav(path, np.zeros(100, dtype=np.float32), 16000)
        with pytest.raises(ConfigError):
            F.read_wav(path, expected_rate=32000)

    @pytest.mark.parametrize("keep", [0, 4, 12, 30, 43])
    def test_cut_header_is_a_format_error_naming_the_file(self, tmp_path, keep):
        path = tmp_path / "cut.wav"
        write_wav(path, np.zeros(100, dtype=np.float32), 32000)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not a readable WAV"):
            F.read_wav(path, 32000)

    def test_short_data_chunk_is_a_format_error_not_a_warning(self, tmp_path):
        path = tmp_path / "short.wav"
        write_wav(path, np.zeros(100, dtype=np.float32), 32000)
        path.write_bytes(path.read_bytes()[:-40])
        filters = list(warnings.filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="Reached EOF prematurely"):
                F.read_wav(path, 32000)
            assert warnings.filters[1:] == filters  # the read leaves no filter behind

    def test_unknown_chunk_is_skipped_without_a_warning(self, tmp_path):
        path = tmp_path / "bext.wav"
        wave = np.linspace(-0.5, 0.5, 100, dtype=np.float32)
        write_wav(path, wave, 32000)
        raw = bytearray(path.read_bytes()) + b"bext" + struct.pack("<I", 6) + b"avfuse"
        raw[4:8] = struct.pack("<I", len(raw) - 8)  # the RIFF size covers the new chunk
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(F.read_wav(path, 32000), wave.astype(np.float64))

    def test_multichannel_is_a_format_error_naming_its_channel_count(self, tmp_path):
        path = tmp_path / "three.wav"
        write_wav(path, np.zeros((100, 3), dtype=np.float32), 32000)
        with pytest.raises(DataFormatError, match="expected mono audio, got 3 channels"):
            F.read_wav(path, 32000)
