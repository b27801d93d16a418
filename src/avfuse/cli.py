"""Command-line surface: synth, train, eval, infer, gradcheck.

A train run is configured by an optional JSON config file, whose top
level and ``model`` and ``train`` sections each spell a setting once and
hold it within its declared type and range, and by flags, each of which
overrides one setting (file < flags).  The configuration each command ran
with is echoed next to every artifact it writes.  Each command checks its
output paths before it does any work, and writes every file whole or not at
all (a temp file, fsynced and renamed over it), except AVF1 feature files and
the append-only metrics.jsonl.  Exit codes: 0 success, 1 validation error,
2 runtime or numerical error.
"""

from __future__ import annotations

import argparse
import collections
import fcntl
import json
import math
import os
import platform
import sys
import time
from dataclasses import MISSING, asdict, dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import data, inference, metrics, model, numerics, settings, training
from .errors import AvfuseError, ConfigError, ValidationError

EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage problems are validation errors
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

@dataclass
class RunSettings:
    """A train run config's top-level settings."""

    train_manifest: str = settings.setting("")
    val_manifest: str = settings.setting("")
    out_dir: str = settings.setting("runs/default")
    min_count: int = settings.setting(1, ">= 1")


# A train run config's sections, None being its top level, each by the config
# dataclass whose fields with a default are the settings it may hold.
_SECTIONS = {None: RunSettings, "model": model.ModelConfig, "train": training.TrainConfig}


def load_run_config(path: str | None) -> dict:
    """The run config file's settings by section, as :data:`_SECTIONS` keys
    them.  Every unknown key and every value outside its setting's declared
    type and range is reported."""
    sections = {section: {} for section in _SECTIONS}
    if path is None:
        return sections
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    problems = []
    for section, cls in _SECTIONS.items():
        body = cfg if section is None else cfg.get(section, {})
        if not isinstance(body, dict):
            raise ValidationError(f"{path}: {section or 'a run config'} must be an object, "
                                  f"got {json.dumps(body)}")
        settable = {f.name: f for f in dataclass_fields(cls) if f.default is not MISSING}
        for key, value in body.items():
            if section is None and key in _SECTIONS:
                continue  # a section, read on its own turn
            where = key if section is None else f"{section}.{key}"
            if key not in settable:
                problems.append(f"{path}: unknown config key {where!r}")
            elif bad := settings.problem(settable[key], value, where):
                problems.append(f"{path}: {bad}")
            else:
                sections[section][key] = value
    if problems:
        raise ValidationError(problems)
    return sections


def _echo_config(resolved: dict, out_dir: Path) -> None:
    text = json.dumps(resolved, indent=2, sort_keys=True)
    print(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    data.write_whole(out_dir / "resolved_config.json", [(text + "\n").encode("utf-8")])


def _check_outputs(outputs, inputs=()) -> None:
    """Reject the first of ``outputs``, (flag, path, is_file) triples, that the
    command cannot write, naming its flag and path, before it does any work:
    a directory that is a file or lies under one, and a file that is a
    directory or whose directory is missing, is a file or lies under one.  An
    output that resolves to the same path as an earlier output or one of
    ``inputs``, (flag, path) pairs, is rejected naming both flags."""
    claimed = [(flag, path, Path(path).resolve()) for flag, path in inputs]
    for flag, path, is_file in outputs:
        path = Path(path)
        if is_file and path.is_dir():
            raise ValidationError(f"{flag} {path}: is a directory")
        directory = path.parent if is_file else path
        existing = next(p for p in (directory, *directory.parents) if p.exists())
        if not existing.is_dir():
            raise ValidationError(f"{flag} {path}: {existing} is not a directory")
        if is_file and existing != directory:
            raise ValidationError(f"{flag} {path}: directory {directory} does not exist")
        for other_flag, other, resolved in claimed:
            if path.resolve() == resolved:
                raise ValidationError(f"{flag} {path}: the same file as {other_flag} {other}")
        claimed.append((flag, path, path.resolve()))


class _DirLock:
    """One process owns one checkpoint directory: an exclusive ``flock`` on
    ``<dir>/.lock``, which the kernel drops when the owner exits.

    The file is never unlinked; it holds the owner's pid for the error message.
    """

    def __init__(self, directory: Path):
        self.path = directory / ".lock"
        self.fd: int | None = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                owner = os.read(fd, 32).decode("ascii", "replace").strip()
                by = f" by pid {owner}" if owner.isdigit() else ""
                raise ValidationError(
                    f"checkpoint directory {self.path.parent} is locked{by}"
                ) from None
            os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode())
        except BaseException:
            os.close(fd)
            raise
        self.fd = fd
        return self

    def __exit__(self, *exc):
        os.close(self.fd)  # closing the last descriptor releases the lock


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


# ``avfuse synth`` flag dest -> SyntheticTaskSpec field; the flags default to the spec's.
_SYNTH_FIELDS = {
    "classes": "n_classes", "ambiguous_pairs": "n_ambiguous_pairs",
    "feature_dim": "feature_dim", "noise_std": "noise_std",
    "examples_per_class": "examples_per_class",
    "eval_examples_per_class": "eval_examples_per_class",
    "t_audio": "t_audio", "t_visual": "t_visual", "seed": "seed",
}


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    _check_outputs([("--out", out_dir, False)])
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise ValidationError(
            f"output directory {out_dir} is not empty; pass --force to overwrite"
        )
    spec = data.SyntheticTaskSpec(**{f: getattr(args, dest) for dest, f in _SYNTH_FIELDS.items()})
    task = data.generate_synthetic_task(spec, out_dir)
    echo = {"command": "synth", **{dest: getattr(spec, f) for dest, f in _SYNTH_FIELDS.items()}}
    _echo_config(echo, out_dir)
    train_n = spec.n_classes * spec.examples_per_class
    eval_n = spec.n_classes * spec.eval_examples_per_class
    print(f"wrote {train_n} train / {eval_n} eval examples under {out_dir}")
    print(f"train manifest: {task.train_manifest}")
    print(f"eval manifest:  {task.eval_manifest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# The ``avfuse train`` flags, each overriding one run-config setting: (flag,
# section, key, argparse kwargs).  A flag that takes a value parses to its
# setting's default's type; keys are unique across sections.
_TRAIN_FLAGS = (
    ("--train-manifest", None, "train_manifest", {}),
    ("--val-manifest", None, "val_manifest", {}),
    ("--out", None, "out_dir", {}),
    ("--seed", "train", "seed", {}),
    ("--fusion-mode", "model", "fusion_mode", {}),
    ("--beta", "model", "beta", {}),
    ("--d", "model", "d", {}),
    ("--heads", "model", "heads", {}),
    ("--encoder-blocks", "model", "encoder_blocks", {}),
    ("--decoder-blocks", "model", "decoder_blocks", {}),
    ("--dropout", "model", "dropout", {}),
    ("--max-caption-len", "model", "max_caption_len", {}),
    ("--epochs", "train", "epochs", {}),
    ("--warmup-epochs", "train", "warmup_epochs", {}),
    ("--lr", "train", "lr_peak", {}),
    ("--batch-size", "train", "batch_size", {}),
    ("--label-smoothing", "train", "label_smoothing", {}),
    ("--checkpoint-interval", "train", "checkpoint_interval", {}),
    ("--augment", "train", "augment", {"action": "store_const", "const": True}),
    ("--no-clip", "train", "clip_norm", {"action": "store_const", "const": None}),
)


def _out_flag(args) -> str:
    """What gave the train run's output directory: ``--out`` or the config's ``out_dir``."""
    return "--out" if "out_dir" in vars(args) else "out_dir"


def _check_unused_run_dir(flag: str, out_dir: Path) -> None:
    """One log holds one run: reject an output directory that holds a ``metrics.jsonl``."""
    if (out_dir / "metrics.jsonl").exists():
        raise ValidationError(f"{flag} {out_dir}: {out_dir / 'metrics.jsonl'} exists: "
                              "the directory holds an earlier run")


def build_run(args):
    """Construct (top-level settings, model_config, train_config, vocab,
    train/val examples) from the ``--config`` file's settings with each
    given :data:`_TRAIN_FLAGS` flag over them; a setting that neither
    gives takes its default.  The output directory is checked, and one
    that already holds a ``metrics.jsonl`` is rejected, before any clip is
    loaded."""
    sections = load_run_config(args.config)
    given = vars(args)  # a flag that was not given is absent (argparse.SUPPRESS)
    for _, section, key, _ in _TRAIN_FLAGS:
        if key in given:
            sections[section][key] = given[key]
    top = RunSettings(**sections[None])
    if not top.train_manifest:
        raise ValidationError("train_manifest is required")
    out_flag, out_dir = _out_flag(args), Path(top.out_dir)
    _check_outputs([(out_flag, out_dir, False)])
    _check_unused_run_dir(out_flag, out_dir)

    manifest = data.load_manifest(top.train_manifest)
    val_manifest = data.load_manifest(top.val_manifest) if top.val_manifest else None
    vocab = data.build_vocabulary_from_manifest(manifest, min_count=top.min_count)

    model_kw = sections["model"]
    config = model.ModelConfig(vocab_size=len(vocab), **model_kw)
    tcfg = training.TrainConfig.from_json(sections["train"])
    config.validate()
    tcfg.validate()

    train_examples = data.load_examples(manifest, vocab, config.max_caption_len)
    # A width that neither gives is that of the first clip's rows; _check_inputs
    # then holds every clip to it.
    mode = config.fusion_mode
    if model.mode_uses_audio(mode) and "audio_in_dim" not in model_kw:
        config.audio_in_dim = train_examples[0].audio_patches.shape[1]
    visual = next((ex.visual for ex in train_examples if ex.visual is not None), None)
    if model.mode_uses_visual(mode) and "visual_in_dim" not in model_kw and visual is not None:
        config.visual_in_dim = visual.shape[1]
    config.validate()  # a file of 0-wide rows gives a width of 0
    val_examples = (
        data.load_examples(val_manifest, vocab, config.max_caption_len) if val_manifest else []
    )
    config.max_audio_len = max(config.max_audio_len,
                               *(len(ex.audio_patches) for ex in train_examples + val_examples))
    _check_inputs(_manifest_inputs(top.train_manifest, train_examples)
                  + _manifest_inputs(top.val_manifest, val_examples), config)
    training.check_augment(tcfg, config, train_examples, top.train_manifest)
    return top, config, tcfg, vocab, train_examples, val_examples


def cmd_train(args) -> int:
    """Train from the ``--config`` file's settings with the given flags over
    them, and echo the run as it was built to ``<out_dir>/resolved_config.json``:
    the top-level settings, ``min_count`` included, and the model and train
    configs, each value once.  A bad setting exits 1, and parameters too
    large for memory exit 2, before anything is written.  The used-run-directory
    check runs again under the lock, against a run that logged in between."""
    top, config, tcfg, vocab, train_examples, val_examples = build_run(args)
    out_dir = Path(top.out_dir)
    echo = {"command": "train", **asdict(top), "model": config.to_json(), "train": tcfg.to_json()}
    params = model.init_params(config, seed=tcfg.seed)
    with _DirLock(out_dir):
        _check_unused_run_dir(_out_flag(args), out_dir)
        _echo_config(echo, out_dir)
        state, history = training.fit(
            params, config, vocab, train_examples, val_examples, tcfg,
            out_dir=out_dir, log_path=out_dir / "metrics.jsonl",
        )
    train_losses = [h["train_loss"] for h in history if h["train_loss"] is not None]
    val_losses = [h["val_loss"] for h in history if h["val_loss"] is not None]
    print(f"finished {state.step} steps over {state.epoch} epochs")
    if train_losses:
        print(f"train loss: first {train_losses[0]:.4f} last {train_losses[-1]:.4f}")
    if val_losses:
        print(f"val loss: best {min(val_losses):.4f} (epoch {state.best_epoch})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval / infer
# ---------------------------------------------------------------------------


# An eval manifest is encoded and decoded in chunks of at most _EVAL_CHUNK
# clips and at most _EVAL_ROWS padded audio patch rows, the chunk's clips
# times its longest clip: the batched encoder's attention scores hold clips
# times rows squared values, so 32 full-size ten-second clips (250 patch
# rows) would hold 128 MB an array.  2048 rows are 8 such clips.
_EVAL_CHUNK = 32
_EVAL_ROWS = 2048


def _check_inputs(inputs, config: model.ModelConfig) -> None:
    """Reject the first of ``inputs``, (name, side, rows) triples, that the
    model cannot read: no rows, rows of another width than its config's or
    rows holding NaN or Inf for a side it reads, or audio of more patch rows
    than its positional table."""
    mode = config.fusion_mode
    widths = {"audio": config.audio_in_dim if model.mode_uses_audio(mode) else None,
              "visual": config.visual_in_dim if model.mode_uses_visual(mode) else None}
    for name, side, rows in inputs:
        if widths[side] is None:
            continue
        if rows is None:
            raise ConfigError(f"{name}: fusion mode {mode!r} reads {side} features, "
                              "and there are none")
        if len(rows) == 0:
            raise ConfigError(f"{name}: {side} features have no rows")
        if rows.shape[1] != widths[side]:
            raise ConfigError(f"{name}: {side} features have width {rows.shape[1]}, "
                              f"the model reads {widths[side]}")
        if not np.isfinite(rows).all():
            raise ConfigError(f"{name}: {side} features hold NaN or Inf")
        if side == "audio" and len(rows) > config.max_audio_len:
            raise ConfigError(f"{name}: audio of {len(rows)} patches exceeds the checkpoint's "
                              f"positional table ({config.max_audio_len})")


def _manifest_inputs(manifest_path, examples) -> list[tuple]:
    """:func:`_check_inputs` triples of manifest examples, named by clip."""
    return [(f"{manifest_path}: clip {ex.id!r}", side, rows) for ex in examples
            for side, rows in (("audio", ex.audio_patches), ("visual", ex.visual))]


def _eval_chunks(examples, config: model.ModelConfig):
    """``examples`` in consecutive chunks within :data:`_EVAL_CHUNK` clips
    and :data:`_EVAL_ROWS` padded audio patch rows; a clip longer than
    that runs alone."""
    uses_audio = model.mode_uses_audio(config.fusion_mode)
    chunk, longest = [], 0
    for ex in examples:
        rows = len(ex.audio_patches) if uses_audio else 0
        if chunk and (len(chunk) == _EVAL_CHUNK
                      or (len(chunk) + 1) * max(longest, rows) > _EVAL_ROWS):
            yield chunk
            chunk, longest = [], 0
        chunk.append(ex)
        longest = max(longest, rows)
    if chunk:
        yield chunk


def _decode_manifest(ck: model.Checkpoint, examples,
                     beam: int) -> tuple[dict[str, str], list[float]]:
    """Candidate captions by id, and the seconds each clip took to decode.

    The clips run in the chunks of :func:`_eval_chunks`.  A chunk is padded by
    :func:`training.collate` and encoded in one call with its padding masks,
    as a training batch is; greedy decoding (beam 1) then decodes its clips
    one by one, and beam search all of them in lockstep.  Every clip of a
    chunk is booked the chunk's wall time over its clip count.
    """
    candidates, clip_s = {}, []
    for chunk in _eval_chunks(examples, ck.config):
        start = time.perf_counter()
        batch, _ = training.collate(chunk, ck.config)
        enc = model.encode_modalities(ck.params, ck.config, audio=batch.audio,
                                      visual=batch.visual, audio_mask=batch.audio_mask,
                                      visual_mask=batch.visual_mask)
        decoded = inference.caption_clips(ck.params, ck.config, enc, beam)
        for ex, ids in zip(chunk, decoded):
            candidates[ex.id] = " ".join(data.decode_caption(ids, ck.vocab))
        clip_s += [(time.perf_counter() - start) / len(chunk)] * len(chunk)
    return candidates, clip_s


def _environment() -> dict:
    """Where the eval ran: interpreter, numpy, CPUs and BLAS thread settings."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def cmd_eval(args) -> int:
    """Decode the manifest, score it, and print (and with ``--report`` write)
    the report.

    ``timing`` covers encoding and decoding.  Each chunk of clips, greedy or
    beam search, is timed as a whole and each of its clips is booked the
    chunk's time over its clip count, so ``ms_per_clip_p50`` and
    ``ms_per_clip_p95`` are the median and the 95th percentile of those
    per-clip times.  ``settings`` names the beam width that ran, 1 under
    ``--greedy``.  ``environment`` names the interpreter, numpy, the CPU
    count and the BLAS thread settings.

    An output path that is a directory, lies in a missing directory or
    under a file, or is the path of the other output, the manifest or the
    checkpoint, exits 1 before the checkpoint is read, and a manifest too
    small for CIDEr exits 1 before any clip is decoded.
    """
    outputs = (("--candidates-out", args.candidates_out), ("--report", args.report))
    _check_outputs([(flag, path, True) for flag, path in outputs if path],
                   inputs=[("--manifest", args.manifest), ("--checkpoint", args.checkpoint)])
    manifest = data.load_manifest(args.manifest)
    ck = model.load_checkpoint(args.checkpoint, keep_state=False)
    examples = data.load_examples(manifest, ck.vocab, ck.config.max_caption_len)
    _check_inputs(_manifest_inputs(args.manifest, examples), ck.config)
    if len(examples) < metrics.CIDER_MIN_CORPUS:
        raise ValidationError(f"{args.manifest}: CIDEr needs at least "
                              f"{metrics.CIDER_MIN_CORPUS} records, the manifest has "
                              f"{len(examples)}")
    candidates, clip_s = _decode_manifest(ck, examples, args.beam)
    if args.candidates_out:
        data.write_whole(args.candidates_out, [
            (json.dumps({"id": cid, "caption": caption}, sort_keys=True) + "\n").encode("utf-8")
            for cid, caption in candidates.items()])
    report = metrics.evaluate(candidates, manifest)
    payload = report.to_json()
    payload["settings"] = {
        "checkpoint": str(args.checkpoint), "manifest": str(args.manifest),
        "beam": args.beam, "greedy": args.beam == 1,
        "fusion_mode": ck.config.fusion_mode,
    }
    decode_s = sum(clip_s)  # load_manifest has rejected an empty manifest
    payload["timing"] = {"clips": len(clip_s), "decode_s": decode_s,
                         "clips_per_s": len(clip_s) / decode_s,
                         "ms_per_clip_p50": 1000.0 * float(np.median(clip_s)),
                         "ms_per_clip_p95": 1000.0 * float(np.percentile(clip_s, 95))}
    payload["environment"] = _environment()
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.report:
        data.write_whole(args.report, [(text + "\n").encode("utf-8")])
    return EXIT_OK


def cmd_infer(args) -> int:
    ck = model.load_checkpoint(args.checkpoint, keep_state=False)
    config = ck.config
    audio = None
    if model.mode_uses_audio(config.fusion_mode):
        audio, _ = data.load_audio_input(args.audio)
    visual = None
    if model.mode_uses_visual(config.fusion_mode):
        if not args.visual:
            raise ValidationError(
                f"fusion mode {config.fusion_mode!r} needs --visual features"
            )
        visual = data.read_feature_file(args.visual).astype(np.float64)
    _check_inputs([(args.audio, "audio", audio), (args.visual, "visual", visual)], config)

    enc = model.encode_modalities(ck.params, config, audio=audio, visual=visual)
    [ids] = inference.caption_clips(ck.params, config, enc[None], args.beam)
    caption = " ".join(data.decode_caption(ids, ck.vocab))
    print(caption)

    if args.trace and config.fusion_mode.startswith("adaava"):
        _, traces = model.decode_logits(ck.params, config, enc, np.asarray(ids[:-1] or ids),
                                        collect_traces=True)
        for i, tr in enumerate(traces):
            conf = tr.a_conf.data
            print(
                f"block {i}: mean_conf={conf.mean():.4f} "
                f"audio_mask_density={tr.m_a.data.mean():.4f} "
                f"video_mask_density={tr.m_v.data.mean():.4f}"
            )
    elif args.trace:
        print(f"(no fusion trace: mode {config.fusion_mode})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _gradcheck_probe(seed: int, near_threshold: bool):
    """Desk-config adaava_audio decoder block plus random inputs to probe."""
    config = model.ModelConfig(
        vocab_size=32, d=128, heads=4, encoder_blocks=2, decoder_blocks=1,
        fusion_mode="adaava_audio", max_caption_len=8, audio_in_dim=64,
        visual_in_dim=64, max_audio_len=16, dropout=0.0,
    )
    params = model.init_params(config, seed=seed)
    blk = params.decoder[0]
    rng = np.random.default_rng(seed)
    enc = model.EncodedModalities(
        audio=numerics.Tensor(rng.normal(size=(7, config.d))),
        visual=numerics.Tensor(rng.normal(size=(5, config.d))),
    )
    x0 = numerics.Tensor(rng.normal(size=(5, config.d)))
    mixer = rng.normal(size=(5, config.d))
    if near_threshold:
        # park half the confidence entries within a hair of the threshold
        blk.conf_fc.weight.data = np.zeros_like(blk.conf_fc.weight.data)
        logit = math.log(config.beta / (1.0 - config.beta))
        bias = np.full(config.d, 3.0)
        bias[::2] = logit + 1e-9
        blk.conf_fc.bias.data = bias
    return config, params, blk, enc, x0, mixer


# Each probe steps one coordinate by numerics.GRADCHECK_STEP either way, and a
# group passes when its worst relative error is below GRADCHECK_BOUND, criterion 2's.
GRADCHECK_BOUND = 1e-5


def cmd_gradcheck(args) -> int:
    """Check each decoder-block parameter group's analytic gradient against
    central differences.  With exclusion on, a coordinate whose +step and
    -step probes gate with different fusion masks is skipped: the loss is not
    differentiable across the threshold.  Exit 0 iff every group passes."""
    config, params, blk, enc, x0, mixer = _gradcheck_probe(args.seed, args.near_threshold)
    masks = collections.deque(maxlen=2)  # the last two passes' stacked (m_a, m_v)

    def block_loss() -> numerics.Tensor:
        # the cache is built here, so probes of cross_*.wk/wv reach the projection
        cache = model.init_decoder_state(params, config, enc).blocks[0]
        out, tr, _ = model.decoder_block(x0, blk, config, cache)
        masks.append(np.stack([tr.m_a.data, tr.m_v.data]))
        return numerics.sum_(numerics.mul(out, mixer))

    groups = [slot for slot in model.parameter_slots(params)
              if slot[0].startswith("decoder.0.")]
    rng = np.random.default_rng(args.seed + 1)
    errors = []
    for name, owner, attr in groups:
        original: numerics.Tensor = getattr(owner, attr)

        def f(leaf: numerics.Tensor) -> numerics.Tensor:
            setattr(owner, attr, leaf)
            try:
                return block_loss()
            finally:
                setattr(owner, attr, original)

        excluded = []

        def flips_mask(i: int) -> bool:  # after coordinate i's two probes
            if np.array_equal(*masks):
                return False
            excluded.append(i)
            return True

        err = numerics.gradcheck(
            f, original, exclusion_predicate=flips_mask if args.exclusion else None,
            max_coords=args.coords_per_group, rng=rng,
        )
        errors.append(err)
        status = "ok" if err < GRADCHECK_BOUND else "FAIL"
        note = f" (excluded {len(excluded)})" if excluded else ""
        print(f"{name:44s} max_rel_err={err:.3e} {status}{note}")

    passed = all(err < GRADCHECK_BOUND for err in errors)
    print(f"worst group error: {max(errors):.3e}")
    print("gradcheck passed" if passed else "gradcheck FAILED")
    return EXIT_OK if passed else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="avfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic ambiguous-sound dataset")
    p.add_argument("--out", required=True)
    spec = data.SyntheticTaskSpec()
    for dest, f in _SYNTH_FIELDS.items():
        default = getattr(spec, f)
        p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a captioner")
    p.add_argument("--config", help="JSON run config; flags override file values")
    for flag, section, key, kwargs in _TRAIN_FLAGS:
        typed = {} if "const" in kwargs else {"type": type(getattr(_SECTIONS[section], key))}
        p.add_argument(flag, dest=key, default=argparse.SUPPRESS, **typed, **kwargs)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="decode an eval manifest and score it")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--greedy", dest="beam", action="store_const", const=1,
                   default=argparse.SUPPRESS, help="the same as --beam 1")
    p.add_argument("--report")
    p.add_argument("--candidates-out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="caption one clip")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--audio", required=True, help="WAV file or AVF1 feature file")
    p.add_argument("--visual", help="AVF1 feature file")
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("gradcheck", help="finite-difference check of the fusion decoder block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords-per-group", type=int, default=8)
    p.add_argument("--no-exclusion", dest="exclusion", action="store_false")
    p.add_argument("--near-threshold", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "beam", 1) < 1:  # eval and infer, before the checkpoint is read
            raise ConfigError(f"--beam must be >= 1, got {args.beam}")
        return args.func(args)
    except ConfigError as exc:  # ValidationError included
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AvfuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
