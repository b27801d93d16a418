"""The benchmark's workloads: seeded inputs, one timed call, and output checks.

Every workload is a closed loop with one client: ``call`` runs one unit of
work and returns only when it is done; the next call starts after it.  Inputs
come from the workload seed alone.  ``check`` runs outside the timed region
and returns how many of the call's operations failed.

``tiny=True`` shrinks every size so that the schema test runs in seconds; the
benchmark itself always runs the full sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from avfuse import cli, data, frontend, inference, model, training

# Teacher-forced and step-by-step log-probs must agree this closely (the
# decoding-equivalence gate of the roadmap).
LOGPROB_TOL = 1e-12


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs; the run has no result."""


@dataclass
class Call:
    """What one timed call did: operations attempted, work items, and outputs to check."""

    ops: int
    items: int
    outputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# decoding checks
# ---------------------------------------------------------------------------


class StepRecorder:
    """Keeps every prefix and log-prob row that ``inference.make_step_fn`` steps return.

    Costs one extra Python call per decode step; the rows are the arrays the
    decoder itself produced, so they are not copied.
    """

    def __init__(self):
        self.decodes: list[tuple] = []  # (params, config, enc, [(prefix, logprobs)])
        self._original = None

    def __enter__(self) -> "StepRecorder":
        self._original = original = inference.make_step_fn

        def make_step_fn(params, config, enc):
            step = original(params, config, enc)
            steps: list[tuple] = []
            self.decodes.append((params, config, enc, steps))

            def recorded(prefix):
                logprobs = step(prefix)
                steps.append((tuple(prefix), logprobs))
                return logprobs

            return recorded

        inference.make_step_fn = make_step_fn
        return self

    def __exit__(self, *exc) -> None:
        inference.make_step_fn = self._original


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def greedy_tokens(steps) -> list[int]:
    """The sequence a greedy decode emitted, rebuilt from its last step."""
    prefix, logprobs = steps[-1]
    return list(prefix) + [int(np.argmax(logprobs))]


def greedy_matches_teacher_forcing(params, config, enc, tokens, steps) -> bool:
    """Every emitted token is the argmax of one teacher-forced decode over the
    decoded sequence, and every step's log-probs equal that decode's row."""
    ids = np.asarray(tokens, dtype=np.int64)
    if len(steps) != len(ids) - 1:
        return False
    logp = _log_softmax(model.decode_logits(params, config, enc, ids[:-1]).data)
    if not np.array_equal(logp.argmax(axis=-1), ids[1:]):
        return False
    for prefix, row in steps:
        k = len(prefix)
        if tuple(ids[:k].tolist()) != prefix:
            return False
        if float(np.max(np.abs(np.asarray(row) - logp[k - 1]))) > LOGPROB_TOL:
            return False
    return True


def reference_beam3(params, config, enc) -> list[int]:
    """Beam-3 tokens from ``inference.beam_search`` driven by plain full-prefix
    ``model.decode_logits`` calls: the reference that any faster decoder must match."""

    def step(prefix):
        ids = np.asarray(prefix, dtype=np.int64)
        return _log_softmax(model.decode_logits(params, config, enc, ids).data[-1])

    return inference.beam_search(step, 3, config.max_caption_len)[0].tokens


def _quiet_cli(argv: list[str]) -> int:
    """Run ``avfuse <argv>`` in this process; its echo of configs and reports is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# desk-train: training.fit on the criterion-5 recipe
# ---------------------------------------------------------------------------


class DeskTrain:
    """One call is one ``training.fit`` over the first epochs of the criterion-5
    run; one operation is one training step and one item one training example."""

    name = "desk-train"
    setups = 5

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int, work: Path) -> dict:
        t = self.tiny
        spec = data.SyntheticTaskSpec(
            n_classes=2 if t else 8, n_ambiguous_pairs=1 if t else 4,
            feature_dim=8 if t else 32, noise_std=0.1,
            examples_per_class=4 if t else 24, eval_examples_per_class=2 if t else 8,
            t_audio=4 if t else 10, t_visual=2 if t else 5, seed=seed,
        )
        task = data.generate_synthetic_task(spec, work / "task")
        train_manifest = data.load_manifest(task.train_manifest)
        vocab = data.build_vocabulary_from_manifest(train_manifest)
        config = model.ModelConfig(
            vocab_size=len(vocab), d=8 if t else 64, heads=2 if t else 4,
            encoder_blocks=1, decoder_blocks=1 if t else 2, fusion_mode="adaava_audio",
            max_caption_len=10, audio_in_dim=spec.feature_dim,
            visual_in_dim=spec.feature_dim, max_audio_len=spec.t_audio, dropout=0.0,
        )
        train = data.load_examples(train_manifest, vocab, config.max_caption_len)
        val = data.load_examples(data.load_manifest(task.eval_manifest), vocab,
                                 config.max_caption_len)
        # The first 6 epochs of the criterion-5 run: same warmup, so the same
        # learning rates step for step.
        tcfg = training.TrainConfig(
            lr_peak=1e-3, epochs=2 if t else 6, warmup_epochs=1 if t else 5,
            batch_size=4 if t else 16, label_smoothing=0.1, seed=seed,
            checkpoint_interval=1,
        )
        # One warm-up epoch belongs to set-up: on its own, set-up is ~0.1 s of
        # small-file I/O whose speed on a shared disk varies several-fold.
        warmup = training.TrainConfig(**dict(tcfg.__dict__, epochs=1, warmup_epochs=1))
        training.fit(model.init_params(config, seed=seed), config, vocab, train, val, warmup)
        return {"work": work, "seed": seed, "config": config, "vocab": vocab,
                "train": train, "val": val, "tcfg": tcfg, "calls": 0, "reference": None}

    def setup_digest(self, state: dict) -> str:
        return ""

    def warmup(self, state: dict) -> None:
        pass  # set-up ends with a warm-up epoch

    def prepare(self, state: dict) -> None:
        state["params"] = model.init_params(state["config"], seed=state["seed"])
        state["out"] = state["work"] / f"fit-{state['calls']}"
        state["calls"] += 1

    def call(self, state: dict) -> Call:
        out = state["out"]
        fit_state, history = training.fit(
            state["params"], state["config"], state["vocab"], state["train"], state["val"],
            state["tcfg"], out_dir=out, log_path=out / "metrics.jsonl",
        )
        examples = state["tcfg"].epochs * len(state["train"])
        return Call(ops=fit_state.step, items=examples, outputs={"history": history})

    def check(self, state: dict, call: Call) -> int:
        out = state["out"]
        produced = ((out / "metrics.jsonl").read_bytes(), (out / "last.avck").read_bytes())
        shutil.rmtree(out)
        if state["reference"] is None:
            state["reference"] = produced
        losses = [h["train_loss"] for h in call.outputs["history"]
                  if h["train_loss"] is not None]
        ok = produced == state["reference"] and len(losses) > 1 and losses[-1] < losses[0]
        return 0 if ok else call.ops

    def named(self, rate: float, p50_ms: float, state: dict) -> dict:
        return {"train_examples_per_s": {"value": rate, "unit": "examples/s"}}


# ---------------------------------------------------------------------------
# desk-eval: avfuse eval over a trained desk checkpoint, greedy or beam 3
# ---------------------------------------------------------------------------


class DeskEval:
    """Set-up runs ``avfuse synth`` and ``avfuse train`` with the README
    quickstart flags.  One call runs ``avfuse eval --greedy`` and then
    ``avfuse eval --beam 3`` (the CLI default) over the eval manifest; one
    operation (and item) is one clip decoded by one of them."""

    name = "desk-eval"
    setups = 2
    # Exact captions on 15 of the 16 seeds probed; the other (103) stays at
    # exact match 0 with 15 epochs too.  The checks do not need exact captions.
    epochs = 12
    modes = ("greedy", "beam3")

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int, work: Path) -> dict:
        t = self.tiny
        task, run = work / "task", work / "run"
        synth = ["synth", "--out", str(task), "--classes", "2" if t else "8",
                 "--ambiguous-pairs", "1" if t else "4", "--noise-std", "0.1",
                 "--feature-dim", "8" if t else "32", "--t-audio", "4" if t else "10",
                 "--t-visual", "2" if t else "5", "--seed", str(seed)]
        if t:
            synth += ["--examples-per-class", "4", "--eval-examples-per-class", "1"]
        train = ["train", "--train-manifest", str(task / "train.jsonl"),
                 "--val-manifest", str(task / "eval.jsonl"), "--out", str(run),
                 "--fusion-mode", "adaava_audio", "--d", "8" if t else "64",
                 "--heads", "2" if t else "4", "--encoder-blocks", "1",
                 "--decoder-blocks", "1" if t else "2", "--dropout", "0.0",
                 "--epochs", "1" if t else str(self.epochs),
                 "--warmup-epochs", "1" if t else "5", "--lr", "1e-3",
                 "--batch-size", "16", "--seed", str(seed)]
        for argv in (synth, train):
            if _quiet_cli(argv) != cli.EXIT_OK:
                raise SetupError(f"avfuse {argv[0]} failed")
        return {"work": work, "task": task, "checkpoint": run / "best.avck",
                "references": None, "exact_match": None,
                "seconds": dict.fromkeys(self.modes, 0.0), "clips": 0}

    def setup_digest(self, state: dict) -> str:
        """Set-up trains deterministically, so every set-up writes the same checkpoint."""
        return hashlib.sha256(state["checkpoint"].read_bytes()).hexdigest()

    def _eval(self, state: dict, mode: str) -> int:
        work = state["work"]
        return _quiet_cli(
            ["eval", "--checkpoint", str(state["checkpoint"]),
             "--manifest", str(state["task"] / "eval.jsonl"),
             "--report", str(work / f"report-{mode}.json"),
             "--candidates-out", str(work / f"candidates-{mode}.jsonl")]
            + (["--greedy"] if mode == "greedy" else ["--beam", "3"])
        )

    def warmup(self, state: dict) -> None:
        """One greedy eval, then the reference beam-3 captions (untimed)."""
        self._eval(state, "greedy")
        ck = model.load_checkpoint(state["checkpoint"])
        manifest = data.load_manifest(state["task"] / "eval.jsonl")
        references = {}
        for ex in data.load_examples(manifest, ck.vocab, ck.config.max_caption_len):
            enc = model.encode_modalities(ck.params, ck.config, audio=ex.audio_patches,
                                          visual=ex.visual)
            tokens = reference_beam3(ck.params, ck.config, enc)
            references[ex.id] = " ".join(data.decode_caption(tokens, ck.vocab))
        state["references"] = references
        state["vocab"] = ck.vocab

    def prepare(self, state: dict) -> None:
        pass

    def call(self, state: dict) -> Call:
        start = time.perf_counter()
        with StepRecorder() as recorder:
            greedy_code = self._eval(state, "greedy")
        middle = time.perf_counter()
        beam_code = self._eval(state, "beam3")
        end = time.perf_counter()
        clips = len(state["references"])
        return Call(ops=2 * clips, items=2 * clips, outputs={
            "codes": {"greedy": greedy_code, "beam3": beam_code}, "recorder": recorder,
            "seconds": {"greedy": middle - start, "beam3": end - middle}})

    def check(self, state: dict, call: Call) -> int:
        clips = len(state["references"])
        state["clips"] += clips
        failed = 0
        for mode in self.modes:
            state["seconds"][mode] += call.outputs["seconds"][mode]
            if call.outputs["codes"][mode] != cli.EXIT_OK:
                failed += clips
                continue
            with open(state["work"] / f"candidates-{mode}.jsonl", encoding="utf-8") as fh:
                candidates = {rec["id"]: rec["caption"] for rec in map(json.loads, fh)}
            if mode == "greedy":
                wrong = self._greedy_failures(state, call.outputs["recorder"], candidates)
            else:
                # Beam-3 captions must match the full-prefix reference decoder's,
                # so a decoding change cannot move exact match.
                wrong = sum(candidates.get(cid) != ref
                            for cid, ref in state["references"].items())
                report = (state["work"] / "report-beam3.json").read_text(encoding="utf-8")
                state["exact_match"] = json.loads(report)["exact_match"]
            failed += min(wrong, clips)
        return failed

    def _greedy_failures(self, state: dict, recorder: StepRecorder, candidates: dict) -> int:
        decoded, failed = Counter(), 0
        for params, config, enc, steps in recorder.decodes:
            tokens = greedy_tokens(steps)
            decoded[" ".join(data.decode_caption(tokens, state["vocab"]))] += 1
            if not greedy_matches_teacher_forcing(params, config, enc, tokens, steps):
                failed += 1
        if decoded != Counter(candidates.values()):
            return len(candidates)
        return failed

    def named(self, rate: float, p50_ms: float, state: dict) -> dict:
        per_s = {mode: state["clips"] / state["seconds"][mode] for mode in self.modes}
        return {"eval_greedy_clips_per_s": {"value": per_s["greedy"], "unit": "clips/s"},
                "eval_beam3_clips_per_s": {"value": per_s["beam3"], "unit": "clips/s"},
                "eval_exact_match": {"value": state["exact_match"], "unit": "fraction"}}


# ---------------------------------------------------------------------------
# full-infer: WAV file to caption tokens on the full-size model
# ---------------------------------------------------------------------------


class FullInfer:
    """One call (operation, item) is one clip: ``read_wav`` -> ``log_mel`` ->
    ``patchify`` -> ``encode_modalities`` -> ``caption_greedy``."""

    name = "full-infer"
    setups = 3
    clips = 4
    visual_rows = 10  # one 512-wide visual feature row per second

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.seconds_per_clip = 1 if tiny else 10

    def setup(self, seed: int, work: Path) -> dict:
        if self.tiny:
            config = model.full_size_config(vocab_size=50, d=16, heads=2, encoder_blocks=1,
                                            decoder_blocks=1)
        else:
            config = model.full_size_config(vocab_size=5000)
        params = model.init_params(config, seed=seed)
        rate = frontend.MelConfig().sample_rate
        rng = np.random.default_rng(seed)
        work.mkdir(parents=True, exist_ok=True)
        clips = []
        n = rate * self.seconds_per_clip
        t = np.arange(n) / rate
        for i in range(self.clips):
            tone = np.sin(2 * np.pi * rng.uniform(100.0, 4000.0) * t)
            wave = 0.3 * tone + 0.05 * rng.standard_normal(n)
            path = work / f"clip-{i}.wav"
            wavfile.write(path, rate, np.round(wave * 32767).astype(np.int16))
            visual = rng.standard_normal((self.visual_rows, config.visual_in_dim))
            clips.append((path, visual))
        hop = frontend.MelConfig().hop
        patches = (math.ceil(n / hop) // frontend.FRAMES_PER_PATCH, config.audio_in_dim)
        return {"config": config, "params": params, "clips": clips, "calls": 0,
                "patch_shape": patches}

    def setup_digest(self, state: dict) -> str:
        return ""

    def warmup(self, state: dict) -> None:
        self.prepare(state)
        self.call(state)
        state["calls"] = 0

    def prepare(self, state: dict) -> None:
        state["clip"] = state["clips"][state["calls"] % len(state["clips"])]
        state["calls"] += 1

    def call(self, state: dict) -> Call:
        config, params = state["config"], state["params"]
        path, visual = state["clip"]
        with StepRecorder() as recorder:
            wave = frontend.read_wav(path, expected_rate=frontend.MelConfig().sample_rate)
            patches = frontend.patchify(frontend.log_mel(wave))
            enc = model.encode_modalities(params, config, audio=patches, visual=visual)
            tokens = inference.caption_greedy(params, config, enc)
        return Call(ops=1, items=1, outputs={"patch_shape": patches.shape, "enc": enc,
                                             "tokens": tokens, "recorder": recorder})

    def check(self, state: dict, call: Call) -> int:
        out = call.outputs
        decodes = out["recorder"].decodes
        ok = (out["patch_shape"] == state["patch_shape"] and len(decodes) == 1
              and greedy_tokens(decodes[0][3]) == list(out["tokens"])
              and greedy_matches_teacher_forcing(state["params"], state["config"], out["enc"],
                                                 out["tokens"], decodes[0][3]))
        return 0 if ok else 1

    def named(self, rate: float, p50_ms: float, state: dict) -> dict:
        return {"infer_ms_p50": {"value": p50_ms, "unit": "ms"}}


def make(name: str, tiny: bool = False):
    """The workload called ``name``."""
    factories = {
        "desk-train": lambda: DeskTrain(tiny),
        "desk-eval": lambda: DeskEval(tiny),
        "full-infer": lambda: FullInfer(tiny),
    }
    return factories[name]()


NAMES = ("desk-train", "desk-eval", "full-infer")
