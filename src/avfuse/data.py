"""Vocabulary, caption tokenization, dataset manifests, binary feature files,
and the synthetic ambiguous-sound task generator.

The synthetic task is the desk-scale stand-in for a captioning corpus: classes
come in "ambiguous pairs" that share one audio prototype exactly, so the class
identity is recoverable from audio only up to its pair.  The visual channel
carries the complementary half: it identifies which *member* of a pair is
present (but not the pair), mirroring a camera that shows whether the
mechanical noise came from a jackhammer or from a motor.  Audio alone and
video alone are each insufficient; together they determine the class.
"""

from __future__ import annotations

import json
import os
import struct
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import frontend
from .errors import ConfigError, DataFormatError, DomainError, ValidationError
from .settings import check, setting

PAD_ID, SOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
PAD, SOS, EOS, UNK = "<pad>", "<sos>", "<eos>", "<unk>"
RESERVED = (PAD, SOS, EOS, UNK)

MAX_CAPTIONS = 5


def normalize_caption(raw: str) -> list[str]:
    """Lowercase, strip Unicode punctuation (categories P*), split on whitespace."""
    lowered = raw.lower()
    kept = "".join(ch for ch in lowered if not unicodedata.category(ch).startswith("P"))
    return kept.split()


class Vocabulary:
    """Bijective token<->id map with fixed reserved ids pad=0, sos=1, eos=2, unk=3."""

    def __init__(self, tokens: list[str]):
        for tok in tokens:
            if tok in RESERVED:
                raise ConfigError(f"token {tok!r} collides with a reserved token")
        self._id_to_token: list[str] = list(RESERVED) + list(tokens)
        self._token_to_id = {tok: i for i, tok in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ConfigError("duplicate tokens in vocabulary")

    @classmethod
    def build(cls, corpus: list[list[str]], min_count: int = 1) -> "Vocabulary":
        """Build from tokenized captions; order is frequency desc then lexicographic."""
        if not corpus:
            raise DomainError("cannot build a vocabulary from an empty corpus")
        counts = Counter(tok for caption in corpus for tok in caption)
        kept = sorted(
            (tok for tok, c in counts.items() if c >= min_count),
            key=lambda tok: (-counts[tok], tok),
        )
        return cls(kept)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def encode_token(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def decode_id(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise DomainError(f"token id {token_id} outside vocabulary of size {len(self)}")
        return self._id_to_token[token_id]

    def to_json(self) -> dict:
        return {"tokens": self._id_to_token[len(RESERVED):]}

    @classmethod
    def from_json(cls, payload: dict) -> "Vocabulary":
        return cls(list(payload["tokens"]))


def encode_caption(tokens: list[str], vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Wrap tokens in sos/eos, truncate keeping eos last, pad to ``max_len``:
    ids of shape (max_len,)."""
    if max_len < 3:
        raise ConfigError(f"max_len must be >= 3, got {max_len}")
    body = [vocab.encode_token(t) for t in tokens][: max_len - 2]
    seq = [SOS_ID] + body + [EOS_ID]
    out = np.full(max_len, PAD_ID, dtype=np.int64)
    out[: len(seq)] = seq
    return out


def decode_caption(ids, vocab: Vocabulary) -> list[str]:
    """Inverse of encode_caption: strip sos, stop at eos, skip pads."""
    tokens = []
    for tid in np.asarray(ids).tolist():
        if tid == SOS_ID or tid == PAD_ID:
            continue
        if tid == EOS_ID:
            break
        tokens.append(vocab.decode_id(int(tid)))
    return tokens


def write_whole(path, parts) -> None:
    """Write the bytes-like ``parts`` to ``path`` whole or not at all: into
    ``<path>.tmp`` beside it, fsynced and renamed over ``path``, unlinked on failure."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

FEATURE_MAGIC = b"AVF1"
_DTYPE_F32 = 0
_HEADER = struct.Struct("<4sIIB")  # magic, T, d, dtype code


def write_feature_file(path, matrix) -> None:
    """Write a T x d float32 matrix in the AVF1 layout (little-endian, row-major),
    not by :func:`write_whole`: :func:`read_feature_file` rejects a torn file by
    its declared size, and a synth writes hundreds, which fsync would slow several-fold."""
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    if arr.ndim != 2:
        raise DataFormatError(f"feature matrix must be 2-d, got shape {arr.shape}")
    t, d = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, t, d, _DTYPE_F32))
        fh.write(arr.tobytes())


def read_feature_file(path) -> np.ndarray:
    """Read an AVF1 file back into a (T, d) float32 array, bit-exactly.

    The header must carry the AVF1 magic and the float32 dtype code, and the
    file must hold exactly the 4·T·d payload bytes it declares; the file's
    size is checked before any payload is read.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataFormatError(f"{path}: truncated header ({len(header)} bytes)")
        magic, t, d, code = _HEADER.unpack(header)
        if magic != FEATURE_MAGIC:
            raise DataFormatError(
                f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC.decode()!r}"
            )
        if code != _DTYPE_F32:
            raise DataFormatError(f"{path}: unsupported dtype code {code}")
        expected = 4 * t * d
        held = os.fstat(fh.fileno()).st_size - _HEADER.size
        if held != expected:
            kind = "truncated" if held < expected else "oversized"
            raise DataFormatError(
                f"{path}: {kind} payload, expected {expected} bytes for {t}x{d}"
            )
        payload = fh.read(expected)
    return np.frombuffer(payload, dtype="<f4").reshape(t, d)


def load_audio_input(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Encoder input rows for one audio file, and its log-mel spectrogram.

    A ``.wav`` file is read at the frontend's sample rate, turned into log-mel
    frames and patchified; any other file is read as AVF1 features, as
    float64 rows without a spectrogram.  A waveform too short to frame or
    patchify is a :class:`DataFormatError` naming the file.
    """
    if Path(path).suffix.lower() != ".wav":
        return read_feature_file(path).astype(np.float64), None
    waveform = frontend.read_wav(path, frontend.MEL.sample_rate)
    try:
        mel = frontend.log_mel(waveform)
        return frontend.patchify(mel), mel
    except DomainError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


@dataclass
class ManifestRecord:
    id: str
    audio: str
    captions: list[str]
    visual_features: str | None = None

    def to_json(self) -> dict:
        out = {"id": self.id, "audio": self.audio, "captions": self.captions}
        if self.visual_features is not None:
            out["visual_features"] = self.visual_features
        return out


@dataclass
class DatasetManifest:
    """Ordered per-example records binding feature files to reference captions."""

    records: list[ManifestRecord]
    root: Path

    def __len__(self) -> int:
        return len(self.records)

    def resolve(self, relpath: str) -> Path:
        p = Path(relpath)
        return p if p.is_absolute() else self.root / p


def load_manifest(path) -> DatasetManifest:
    """Load a JSON-lines manifest of at least one record; every validation
    error names the file and, for a bad record, its line number."""
    path = Path(path)
    manifest = DatasetManifest(records=[], root=path.parent)
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
            raise ValidationError(f"{where}: invalid record: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValidationError(
                f"{where}: record must be a JSON object, got {type(obj).__name__}"
            )
        for key in ("id", "audio", "captions"):
            if key not in obj:
                raise ValidationError(f"{where}: missing field {key!r}")
        captions = obj["captions"]
        if not isinstance(captions, list) or not captions:
            raise ValidationError(f"{where}: captions must be a non-empty list")
        if len(captions) > MAX_CAPTIONS:
            raise ValidationError(
                f"{where}: {len(captions)} captions exceeds the maximum of {MAX_CAPTIONS}"
            )
        rec_id = str(obj["id"])
        if rec_id in first_line:
            raise ValidationError(
                f"{where}: duplicate id {rec_id!r} (first on line {first_line[rec_id]})"
            )
        first_line[rec_id] = lineno
        rec = ManifestRecord(
            id=rec_id,
            audio=str(obj["audio"]),
            captions=[str(c) for c in captions],
            visual_features=(
                str(obj["visual_features"]) if obj.get("visual_features") is not None else None
            ),
        )
        for label, rel in (("audio", rec.audio), ("visual_features", rec.visual_features)):
            if rel is not None and not manifest.resolve(rel).exists():
                raise ValidationError(
                    f"{where}: {label} path does not exist: {manifest.resolve(rel)}"
                )
        manifest.records.append(rec)
    if not manifest.records:
        raise ValidationError(f"{path}: manifest has no records")
    return manifest


def write_manifest(records: list[ManifestRecord], path) -> None:
    write_whole(path, [(json.dumps(rec.to_json(), sort_keys=True) + "\n").encode("utf-8")
                       for rec in records])


# ---------------------------------------------------------------------------
# synthetic ambiguous-sound task
# ---------------------------------------------------------------------------

# Sounding-object words used to instantiate per-class captions.
OBJECT_WORDS = (
    "jackhammer", "motor", "dog", "bell", "rain", "drill", "engine", "wind",
    "hammer", "siren", "train", "violin", "kettle", "saw", "fan", "horn",
)

CAPTION_TEMPLATE = "a {object} is making sound"


@dataclass
class SyntheticTaskSpec:
    """Configuration of the generated disambiguation task.

    Classes ``2p`` and ``2p + 1`` form ambiguous pair ``p`` for
    ``p < n_ambiguous_pairs``: both share audio prototype ``p`` bit-exactly,
    while their visual prototypes encode only the pair member (shared across
    pairs).  Remaining classes get unique prototypes in both modalities.
    """

    n_classes: int = setting(8, ">= 2")
    n_ambiguous_pairs: int = setting(4, ">= 0")
    feature_dim: int = setting(64, ">= 1")
    noise_std: float = setting(0.1, ">= 0")
    examples_per_class: int = setting(24, ">= 1")
    eval_examples_per_class: int = setting(4, ">= 1")
    t_audio: int = setting(12, ">= 1")
    t_visual: int = setting(6, ">= 1")
    seed: int = setting(0, ">= 0")

    def validate(self) -> None:
        check(self)
        if self.n_classes < 2 * self.n_ambiguous_pairs:
            raise ConfigError(
                f"n_classes={self.n_classes} cannot host {self.n_ambiguous_pairs} ambiguous pairs"
            )
        if len(OBJECT_WORDS) < self.n_classes:
            raise ConfigError(f"need {self.n_classes} object words, have {len(OBJECT_WORDS)}")

    def class_caption(self, cls: int) -> str:
        return CAPTION_TEMPLATE.format(object=OBJECT_WORDS[cls])


@dataclass
class SyntheticTask:
    spec: SyntheticTaskSpec
    train_manifest: Path
    eval_manifest: Path
    audio_prototypes: np.ndarray = field(repr=False)  # (n_classes, t_audio, feature_dim)
    visual_prototypes: np.ndarray = field(repr=False)  # (n_classes, t_visual, feature_dim)


def _prototypes(spec: SyntheticTaskSpec, rng: np.random.Generator):
    n, d = spec.n_classes, spec.feature_dim
    audio = np.empty((n, spec.t_audio, d), dtype=np.float32)
    visual = np.empty((n, spec.t_visual, d), dtype=np.float32)

    pair_audio = rng.normal(size=(spec.n_ambiguous_pairs, spec.t_audio, d))
    member_visual = rng.normal(size=(2, spec.t_visual, d))
    for cls in range(n):
        if cls < 2 * spec.n_ambiguous_pairs:
            pair, member = divmod(cls, 2)
            audio[cls] = pair_audio[pair]
            visual[cls] = member_visual[member]
        else:
            audio[cls] = rng.normal(size=(spec.t_audio, d))
            visual[cls] = rng.normal(size=(spec.t_visual, d))
    return audio, visual


def generate_synthetic_task(spec: SyntheticTaskSpec, out_dir) -> SyntheticTask:
    """Write feature files plus train/eval manifests under ``out_dir``.

    Fully determined by ``spec.seed``: prototypes and per-example noise come
    from named substreams, so two runs produce byte-identical outputs.
    """
    spec.validate()
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)

    proto_ss, train_ss, eval_ss = np.random.SeedSequence(spec.seed).spawn(3)
    audio_proto, visual_proto = _prototypes(spec, np.random.Generator(np.random.PCG64(proto_ss)))

    def emit(split: str, per_class: int, ss) -> Path:
        rng = np.random.Generator(np.random.PCG64(ss))
        records = []
        for cls in range(spec.n_classes):
            caption = spec.class_caption(cls)
            for k in range(per_class):
                ex_id = f"{split}-{cls:02d}-{k:03d}"
                audio = audio_proto[cls] + spec.noise_std * rng.standard_normal(
                    audio_proto[cls].shape
                )
                visual = visual_proto[cls] + spec.noise_std * rng.standard_normal(
                    visual_proto[cls].shape
                )
                audio_rel = f"features/{ex_id}_audio.avf"
                visual_rel = f"features/{ex_id}_visual.avf"
                write_feature_file(out_dir / audio_rel, audio.astype(np.float32))
                write_feature_file(out_dir / visual_rel, visual.astype(np.float32))
                records.append(
                    ManifestRecord(
                        id=ex_id, audio=audio_rel, captions=[caption], visual_features=visual_rel
                    )
                )
        manifest_path = out_dir / f"{split}.jsonl"
        write_manifest(records, manifest_path)
        return manifest_path

    train_manifest = emit("train", spec.examples_per_class, train_ss)
    eval_manifest = emit("eval", spec.eval_examples_per_class, eval_ss)
    return SyntheticTask(
        spec=spec,
        train_manifest=train_manifest,
        eval_manifest=eval_manifest,
        audio_prototypes=audio_proto,
        visual_prototypes=visual_proto,
    )


# ---------------------------------------------------------------------------
# example preparation for training / evaluation
# ---------------------------------------------------------------------------


@dataclass
class PreparedExample:
    """One example with model-ready inputs.

    ``audio_patches`` holds encoder input rows.  If the manifest pointed at a
    raw waveform, ``mel`` holds its spectrogram, which ``train.augment`` masks
    anew in each training batch before re-patchifying; feature files hold none.
    """

    id: str
    audio_patches: np.ndarray
    visual: np.ndarray | None
    token_ids: np.ndarray
    captions: list[str]
    mel: np.ndarray | None = None  # (T_frames, n_mels), set when the source was a waveform


def load_examples(manifest: DatasetManifest, vocab: Vocabulary,
                  max_caption_len: int) -> list[PreparedExample]:
    """Materialize manifest records: feature files and/or waveforms plus token ids."""
    examples = []
    for rec in manifest.records:
        patches, mel = load_audio_input(manifest.resolve(rec.audio))
        visual = None
        if rec.visual_features is not None:
            visual = read_feature_file(manifest.resolve(rec.visual_features)).astype(np.float64)
        ids = encode_caption(normalize_caption(rec.captions[0]), vocab, max_caption_len)
        examples.append(
            PreparedExample(
                id=rec.id,
                audio_patches=patches,
                visual=visual,
                token_ids=ids,
                captions=rec.captions,
                mel=mel,
            )
        )
    return examples


def build_vocabulary_from_manifest(manifest: DatasetManifest, min_count: int = 1) -> Vocabulary:
    corpus = [normalize_caption(c) for rec in manifest.records for c in rec.captions]
    return Vocabulary.build(corpus, min_count=min_count)
