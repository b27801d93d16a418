"""Outside-in layer tracing: time and count calls into avfuse's public functions.

The tracer replaces module attributes of avfuse with timing wrappers and puts
the originals back when it is removed.  avfuse modules call each other through
module globals (``N.linear``, ``model.forward``, ``training.adam_step``), so a
call made from inside the package goes through the wrapper too and spans nest
the way the calls do.  No file of the program is edited.

Spans (id, name, start, end, parent id, operation id, phase) are kept in
memory in typed arrays, about 45 bytes each, and written out as one ``.npz``
file when the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from avfuse import cli, data, frontend, inference, metrics, model, numerics, training

NUMERIC_OPS = (
    "linear", "matmul", "multi_head_attention", "layer_norm", "softmax_lastdim",
    "log_softmax_lastdim", "gelu", "sigmoid", "embedding", "concat", "add", "mul",
)

# (module, attribute) pairs wrapped with a span.  Span names are "<module>.<attr>".
TRACED = (
    [(data, "load_examples")]
    + [(frontend, name) for name in ("read_wav", "log_mel", "patchify")]
    + [(model, name) for name in ("encode_modalities", "decode_logits", "forward",
                                  "save_checkpoint", "load_checkpoint")]
    + [(numerics, name) for name in NUMERIC_OPS + ("backward",)]
    + [(training, name) for name in ("adam_step", "clip_gradients", "collate",
                                     "evaluate_loss")]
    + [(inference, name) for name in ("greedy_decode", "beam_search")]
    + [(metrics, "evaluate")]
    + [(cli, "cmd_eval")]
)

DECODERS = ("inference.greedy_decode", "inference.beam_search")

# Per-operation self time in ms of these spans is reported under "<span>_ms".
TIMED_SPANS = [
    "frontend.read_wav", "frontend.log_mel", "frontend.patchify",
    "model.encode_modalities", "model.decode_logits", "model.forward",
    "model.save_checkpoint", "model.load_checkpoint", "numerics.backward",
    "training.adam_step", "training.clip_gradients", "training.collate",
    "training.evaluate_loss", "inference.greedy_decode", "inference.beam_search",
    "metrics.evaluate",
]


class Tracer:
    """Collects spans and exact counters while installed and enabled."""

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.op = 0
        self.names: list[str] = []
        self.spans = {"id": array("q"), "name": array("h"), "start": array("d"),
                      "end": array("d"), "parent": array("q"), "op": array("q"),
                      "phase": array("b")}
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_level_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span_id, child_seconds, name]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, attr in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        spans = self.spans
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0, name]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[(self.phase, name)] += duration - frame[1]
                self.calls[(self.phase, name)] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self.top_level_s[self.phase] += duration
                spans["id"].append(span_id)
                spans["name"].append(name_index)
                spans["start"].append(start)
                spans["end"].append(end)
                spans["parent"].append(parent)
                spans["op"].append(self.op)
                spans["phase"].append(self.phase == "timed")
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, n: float) -> None:
        self.counts[(self.phase, key)] += n

    # Exact counters, taken from the arguments and results of public calls.

    def _before_model_decode_logits(self, args, kwargs):
        tokens = kwargs.get("tokens", args[3] if len(args) > 3 else None)
        shape = np.shape(tokens)
        self._count("decode_positions_computed", int(np.prod(shape)))
        # A decode step reads one position per sequence; teacher forcing reads all.
        decoding = any(frame[2] in DECODERS for frame in self._stack)
        used = int(np.prod(shape[:-1])) if decoding else int(np.prod(shape))
        self._count("decode_positions_used", used)
        return args, kwargs

    def _before_numerics_backward(self, args, kwargs):
        tape = kwargs.get("tape", args[1] if len(args) > 1 else None)
        self._count("tape_entries", len(tape))
        return args, kwargs

    def _after_training_collate(self, args, kwargs, result):
        targets = result[1]
        self._count("target_positions", targets.size)
        self._count("nonpad_targets", int((targets != data.PAD_ID).sum()))

    def _after_model_save_checkpoint(self, args, kwargs, result):
        path = kwargs.get("path", args[0] if args else None)
        self._count("checkpoint_bytes", os.path.getsize(path))

    def _count_steps(self, args, kwargs):
        step_fn = kwargs["step_fn"] if "step_fn" in kwargs else args[0]

        def counted_step(prefix):
            self._count("step_calls", 1)
            return step_fn(prefix)

        if "step_fn" in kwargs:
            return args, dict(kwargs, step_fn=counted_step)
        return (counted_step,) + tuple(args[1:]), kwargs

    _before_inference_greedy_decode = _count_steps
    _before_inference_beam_search = _count_steps

    def _after_inference_greedy_decode(self, args, kwargs, result):
        self._count("decoded_clips", 1)
        self._count("decoded_tokens", len(result))

    def _after_inference_beam_search(self, args, kwargs, result):
        self._count("decoded_clips", 1)
        self._count("decoded_tokens", len(result[0].tokens) if result else 0)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, ops: int, wall_s: float) -> dict[str, float]:
        """Per-layer figures for the timed phase, per operation where timed."""
        timed = "timed"
        per_op = 1000.0 / max(ops, 1)
        out: dict[str, float] = {}

        load_calls = sum(self.calls[(p, "data.load_examples")] for p in ("setup", timed))
        load_s = sum(self.self_s[(p, "data.load_examples")] for p in ("setup", timed))
        out["data.load_examples_ms"] = 1000.0 * load_s / max(load_calls, 1)
        for name in TIMED_SPANS:
            out[f"{name}_ms"] = self.self_s[(timed, name)] * per_op

        c = lambda key: self.counts[(timed, key)]  # noqa: E731
        out["model.decode_logits_calls"] = self.calls[(timed, "model.decode_logits")] / max(ops, 1)
        out["model.decode_positions_computed"] = c("decode_positions_computed") / max(ops, 1)
        out["model.decode_positions_used"] = c("decode_positions_used") / max(ops, 1)
        computed = c("decode_positions_computed")
        out["model.decode_useful_share"] = c("decode_positions_used") / computed if computed else 0.0
        saves = self.calls[(timed, "model.save_checkpoint")]
        out["model.save_checkpoint_bytes"] = c("checkpoint_bytes") / saves if saves else 0.0

        backwards = self.calls[(timed, "numerics.backward")]
        out["numerics.tape_entries_per_step"] = c("tape_entries") / backwards if backwards else 0.0
        for op in NUMERIC_OPS:
            out[f"numerics.{op}.calls"] = self.calls[(timed, f"numerics.{op}")] / max(ops, 1)
            out[f"numerics.{op}.ms"] = self.self_s[(timed, f"numerics.{op}")] * per_op

        positions = c("target_positions")
        out["training.nonpad_target_share"] = c("nonpad_targets") / positions if positions else 0.0

        clips = c("decoded_clips")
        out["inference.step_calls_per_clip"] = c("step_calls") / clips if clips else 0.0
        out["inference.tokens_per_clip"] = c("decoded_tokens") / clips if clips else 0.0

        out["cli.eval_other_ms"] = self.self_s[(timed, "cli.cmd_eval")] * per_op
        other_s = max(wall_s - self.top_level_s[timed], 0.0)
        out["other_ms"] = other_s * per_op
        out["trace_coverage_pct"] = 100.0 * (1.0 - other_s / wall_s) if wall_s > 0 else 0.0
        return out

    def write_spans(self, path) -> None:
        """One array per field; ``name`` indexes ``names``, ``parent`` is -1 at
        the top level and ``phase`` is 1 for timed calls, 0 for set-up."""
        columns = {key: np.asarray(values) for key, values in self.spans.items()}
        np.savez_compressed(path, names=np.array(self.names), **columns)
