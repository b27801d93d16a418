"""Loss, schedule, Adam, and the training loop.

The regime: Adam with a linear warmup to a flat peak learning rate,
label-smoothed cross entropy over non-pad positions, SpecAugment's one policy
on waveform-backed examples if ``train.augment`` is on (:func:`check_augment`
rejects it where it cannot act), seeded shuffling, and per-epoch validation
with best-checkpoint tracking.  Every source of randomness lives in a named
substream of one seed, so runs are bit-identical and a checkpoint resumes
mid-run without divergence.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import frontend, model, numerics as N
from .data import PAD_ID, PreparedExample, Vocabulary
from .errors import ConfigError, DomainError, TrainingError
from .numerics import GradTape, Tensor
from .settings import check, setting

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    lr_peak: float = setting(1e-4, "> 0")
    epochs: int = setting(15, ">= 0")
    warmup_epochs: int = setting(5, ">= 0")
    batch_size: int = setting(32, ">= 1")
    label_smoothing: float = setting(0.1, ">= 0 and < 1")
    clip_norm: float | None = setting(1.0, "> 0", optional=True)
    seed: int = setting(0, ">= 0")
    checkpoint_interval: int = setting(1, ">= 1")  # in epochs
    augment: bool = setting(False)

    def validate(self) -> None:
        check(self)
        if 0 < self.epochs < self.warmup_epochs:
            raise ConfigError(f"warmup_epochs={self.warmup_epochs} exceeds epochs={self.epochs}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "TrainConfig":
        return cls(**payload)


def label_smoothing_ce(logits: Tensor, targets: np.ndarray, eps: float) -> Tensor:
    """Label-smoothed cross entropy, averaged over non-pad target positions.

    The smoothed target distribution puts 1 - eps on the gold token and
    eps / (vocab - 1) on every other token.
    """
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"label smoothing eps must be in [0, 1), got {eps}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise DomainError(
            f"target shape {targets.shape} does not match logits {logits.shape[:-1]}"
        )
    vocab = logits.shape[-1]
    nonpad = (targets != PAD_ID)
    count = int(nonpad.sum())
    if count == 0:
        raise DomainError("every target position is padding")

    logp = N.log_softmax_lastdim(logits)
    gold = N.take_along_last(logp, np.where(nonpad, targets, 0))
    off = eps / (vocab - 1)
    total = N.sum_(logp, axis=-1)
    per_pos = N.neg(N.add(N.mul(gold, 1.0 - eps - off), N.mul(total, off)))
    weights = nonpad.astype(np.float64) / count
    return N.sum_(N.mul(per_pos, weights))


def lr_at(step: int, steps_per_epoch: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> lr_peak across the warmup epochs, then flat."""
    if step < 0:
        raise DomainError(f"step must be >= 0, got {step}")
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    if warmup_steps <= 0 or step >= warmup_steps:
        return cfg.lr_peak
    return cfg.lr_peak * (step / warmup_steps)


@dataclass
class AdamState:
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Replace each gradient by a scaled copy so their global L2 norm is <= max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for name in grads:
            grads[name] = grads[name] * scale
    return total


def adam_step(named_params: list[tuple[str, Tensor]], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update with :data:`ADAM_BETA1`, :data:`ADAM_BETA2`
    and :data:`ADAM_EPS`; parameters are replaced, never mutated mid-tape.

    A parameter with no entry in ``grads`` is updated as if its gradient were
    zero.  This is the one rule for a parameter the loss does not reach:
    :func:`numerics.backward` gives such a parameter no entry.
    """
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, tensor in named_params:
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.data)
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1.0 - b1) * g if m is None else b1 * m + (1.0 - b1) * g
        v = (1.0 - b2) * g * g if v is None else b2 * v + (1.0 - b2) * g * g
        state.m[name] = m
        state.v[name] = v
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        tensor.data = tensor.data - lr * update


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def collate(examples: list[PreparedExample], config: model.ModelConfig,
            augment_rng: np.random.Generator | None = None) -> tuple[model.Batch, np.ndarray]:
    """Stack examples into padded arrays; returns (batch, targets).

    Teacher forcing: the model reads token_ids[:-1] and predicts token_ids[1:].
    Given ``augment_rng``, waveform-backed examples are re-augmented here
    (mel-stage masking) before patchification; feature-file examples are not.
    """
    uses_audio = model.mode_uses_audio(config.fusion_mode)
    uses_visual = model.mode_uses_visual(config.fusion_mode)

    tokens = np.stack([ex.token_ids for ex in examples])
    batch = model.Batch(tokens_in=tokens[:, :-1])
    targets = tokens[:, 1:]

    if uses_audio:
        mats = [frontend.patchify(frontend.spec_augment(ex.mel, augment_rng))
                if ex.mel is not None and augment_rng is not None else ex.audio_patches
                for ex in examples]
        batch.audio, batch.audio_mask = model.pad_stack(mats, config.audio_in_dim)
    if uses_visual:
        for ex in examples:
            if ex.visual is None:
                raise ConfigError(
                    f"fusion mode {config.fusion_mode!r} needs visual features, "
                    f"but example {ex.id!r} has none"
                )
        batch.visual, batch.visual_mask = model.pad_stack(
            [ex.visual for ex in examples], config.visual_in_dim
        )
    return batch, targets


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    step: int = 0
    epoch: int = 0
    adam: AdamState = field(default_factory=AdamState)
    best_val: float | None = None
    best_epoch: int | None = None
    rng_states: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "epoch": self.epoch,
            "adam_t": self.adam.t,
            "best_val": self.best_val,
            "best_epoch": self.best_epoch,
            "rng_states": self.rng_states,
        }

    @classmethod
    def from_json(cls, payload: dict, moments: dict[str, np.ndarray]) -> "TrainState":
        adam = AdamState(t=payload["adam_t"])
        for key, arr in moments.items():
            kind, name = key.split(".", 1)
            (adam.m if kind == "m" else adam.v)[name] = arr
        return cls(
            step=payload["step"], epoch=payload["epoch"], adam=adam,
            best_val=payload["best_val"], best_epoch=payload["best_epoch"],
            rng_states=payload["rng_states"],
        )

    def moment_tensors(self) -> dict[str, np.ndarray]:
        out = {}
        for name, arr in self.adam.m.items():
            out[f"m.{name}"] = arr
        for name, arr in self.adam.v.items():
            out[f"v.{name}"] = arr
        return out


def check_augment(cfg: TrainConfig, config: model.ModelConfig,
                  train_examples: list[PreparedExample], source: str = "the training set") -> None:
    """Reject ``cfg.augment`` where SpecAugment cannot act, naming ``train.augment``:
    in a fusion mode that reads no audio, on training clips (``source``) none of
    which is waveform-backed, and on waveform clips shorter than its mask widths."""
    if not cfg.augment:
        return
    if not model.mode_uses_audio(config.fusion_mode):
        raise ConfigError(f"train.augment: fusion mode {config.fusion_mode!r} reads no audio")
    waveforms = [ex for ex in train_examples if ex.mel is not None]
    if not waveforms:
        raise ConfigError(f"train.augment: {source} holds no waveform-backed clip to mask")
    widths = (frontend.SPEC_AUGMENT.max_time_width, frontend.SPEC_AUGMENT.max_freq_width)
    short = [repr(ex.id) for ex in waveforms if np.any(np.less(ex.mel.shape, widths))]
    if short:
        raise ConfigError(f"train.augment: mask widths {widths} exceed the spectrogram "
                          f"extents of clips {', '.join(short)} in {source}")


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, key))))


# Substream key of each training rng, by its name in ``TrainState.rng_states``.
_STREAM_KEYS = {"shuffle": 0, "dropout": 1, "augment": 2}


def batch_loss(params, config, batch, targets, eps, rng=None) -> Tensor:
    logits = model.forward(params, config, batch, rng=rng)
    return label_smoothing_ce(logits, targets, eps)


def evaluate_loss(params, config, examples, cfg: TrainConfig) -> float:
    """Corpus-mean validation loss (no dropout, no augmentation)."""
    total, count = 0.0, 0
    for lo in range(0, len(examples), cfg.batch_size):
        chunk = examples[lo : lo + cfg.batch_size]
        batch, targets = collate(chunk, config)
        loss = batch_loss(params, config, batch, targets, cfg.label_smoothing)
        n = int((targets != PAD_ID).sum())
        total += loss.item() * n
        count += n
    if count == 0:
        raise DomainError("validation set has no target tokens")
    return total / count


def fit(
    params: model.ModelParams,
    config: model.ModelConfig,
    vocab: Vocabulary,
    train_examples: list[PreparedExample],
    val_examples: list[PreparedExample],
    cfg: TrainConfig,
    out_dir: Path | str | None = None,
    log_path: Path | str | None = None,
    state: TrainState | None = None,
) -> tuple[TrainState, list[dict]]:
    """Run the epoch loop; returns the final state and the metrics history.

    ``cfg.augment`` where it cannot act (:func:`check_augment`) is a
    :class:`ConfigError` before anything is written.

    With ``state`` from a checkpoint, training continues exactly where it
    stopped (same shuffles, same dropout draws, same Adam moments).
    Checkpoints: ``last.avck`` every ``checkpoint_interval`` epochs and at the
    end; ``best.avck`` whenever validation improves.
    """
    cfg.validate()
    config.validate()
    if not train_examples:
        raise DomainError("training set is empty")
    check_augment(cfg, config, train_examples)

    named = model.named_parameters(params)

    streams = {name: _stream(cfg.seed, key) for name, key in _STREAM_KEYS.items()}
    if state is None:
        state = TrainState()
    else:
        for name, rng in streams.items():
            rng.bit_generator.state = state.rng_states[name]

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    log_fh = open(log_path, "a", encoding="utf-8") if log_path is not None else None

    history: list[dict] = []
    steps_per_epoch = math.ceil(len(train_examples) / cfg.batch_size)

    def log(record: dict) -> None:
        history.append(record)
        if log_fh is not None:
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            log_fh.flush()

    def record_rng_states() -> None:
        state.rng_states = {name: rng.bit_generator.state for name, rng in streams.items()}

    def save(tag: str) -> None:
        if out_dir is None:
            return
        record_rng_states()
        model.save_checkpoint(
            out_dir / f"{tag}.avck", params, config, vocab,
            state={"train": state.to_json(), "train_config": cfg.to_json()},
            state_tensors=state.moment_tensors(),
        )

    try:
        for epoch in range(state.epoch, cfg.epochs):
            perm = streams["shuffle"].permutation(len(train_examples))
            for lo in range(0, len(train_examples), cfg.batch_size):
                chunk = [train_examples[i] for i in perm[lo : lo + cfg.batch_size]]
                batch, targets = collate(chunk, config, streams["augment"] if cfg.augment else None)
                lr = lr_at(state.step, steps_per_epoch, cfg)
                rng = streams["dropout"] if config.dropout > 0 else None
                try:
                    with GradTape() as tape:
                        loss = batch_loss(params, config, batch, targets,
                                          cfg.label_smoothing, rng=rng)
                    loss_val = loss.item()
                except DomainError as exc:
                    raise TrainingError(f"aborted at step {state.step}: {exc}") from exc
                grads = N.backward(loss, tape)
                # parameter order, so the clip norm's sum does not follow the tape
                grads = {name: grads[t] for name, t in named if t in grads}
                if cfg.clip_norm is not None:
                    clip_gradients(grads, cfg.clip_norm)
                adam_step(named, grads, state.adam, lr)
                del grads  # no gradient outlives its step
                state.step += 1
                log({"step": state.step, "epoch": epoch, "lr": lr,
                     "train_loss": loss_val, "val_loss": None})

            state.epoch = epoch + 1
            val_loss = evaluate_loss(params, config, val_examples, cfg) if val_examples else None
            log({"step": state.step, "epoch": epoch, "lr": None,
                 "train_loss": None, "val_loss": val_loss})
            if val_loss is not None and (state.best_val is None or val_loss < state.best_val):
                state.best_val = val_loss
                state.best_epoch = epoch
                save("best")
            if (epoch + 1) % cfg.checkpoint_interval == 0 or epoch + 1 == cfg.epochs:
                save("last")
        if cfg.epochs == 0:
            save("last")
    finally:
        if log_fh is not None:
            log_fh.close()
    record_rng_states()
    return state, history


def load_train_state(ck: model.Checkpoint) -> tuple[TrainState, TrainConfig]:
    """Rebuild the training state stored inside a checkpoint."""
    if not ck.state or "train" not in ck.state:
        raise DomainError("checkpoint carries no training state")
    state = TrainState.from_json(ck.state["train"], ck.state_tensors)
    cfg = TrainConfig.from_json(ck.state["train_config"])
    return state, cfg
