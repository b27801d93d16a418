"""Dense tensors with reverse-mode autodiff.

Everything downstream (encoders, fusion, training) computes on this module.
Tensors wrap numpy arrays; operations record vector-Jacobian products onto an
explicitly opened :class:`GradTape`, and :func:`backward` consumes the tape to
produce the gradient of each ``requires_grad`` leaf that the output reaches.
A finite-difference :func:`gradcheck` harness verifies analytic gradients.

Conventions that the rest of the package relies on:

* every tensor is float64, and all stated tolerances assume it,
* every forward result is checked for NaN/Inf and rejected with a
  DomainError, by one ``np.isfinite(x).all()`` per result; the ops whose
  products may overflow (matmul, linear, project_heads, attention) ignore
  the overflow, so it surfaces as that error and never as a RuntimeWarning,
* op ordering is deterministic, so repeated runs are bit-identical,
* masked attention logits are *set* to a large negative finite constant
  (never ``-inf``), which makes causal outputs bit-invariant to future
  positions while keeping the finiteness invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, DimensionError, DomainError, UsageError

# Large negative finite logit for masked attention positions.  Any real logit
# added near it is absorbed (|logit| << ulp(1e30)), and exp() underflows to an
# exact 0.0, which is what makes causality bit-exact.
MASKED_LOGIT = -1.0e30

_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# sigmoid's clamp: the float64 neighbours of 0 and 1 inside the open interval.
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)

# Decorates the ops whose products may overflow: the inf they produce becomes
# a DomainError in the finite check, with no RuntimeWarning.  As a decorator
# errstate costs less per call than a ``with`` block, which builds a new
# errstate object each time.
_overflow_to_inf = np.errstate(over="ignore")


class Tensor:
    """A dense real-valued array plus autodiff metadata.

    Treat instances as immutable once created; optimizer updates replace
    ``data`` wholesale between tapes, never during one.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of operations sufficient to compute VJPs.

    One training step owns one tape (single writer).  Use as a context
    manager; ops executed inside record themselves when any input requires
    gradients.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise UsageError("GradTape contexts closed out of order")

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> None:
        self._entries.append((out, inputs, vjp))

    def __len__(self) -> int:
        return len(self._entries)


_TAPE_STACK: list[GradTape] = []


def _active_tape() -> GradTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _check_finite(arr: np.ndarray, opname: str) -> None:
    if not np.isfinite(arr).all():
        raise DomainError(f"non-finite values produced by {opname}")


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _result(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable, opname: str) -> Tensor:
    _check_finite(out_data, opname)
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = track
    if track:
        tape._record(out, inputs, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _result(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _result(out, (a, b), vjp, "mul")


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _result(-a.data, (a,), lambda g: (-g,), "neg")


def sigmoid(a) -> Tensor:
    """Elementwise logistic function, clamped into the open interval (0, 1)."""
    a = _as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) elsewhere: never overflows
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _result(out, (a,), vjp, "sigmoid")


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU; smooth everywhere, which keeps gradcheck clean."""
    a = _as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT_2))
    out = x * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (cdf + x * pdf),)

    return _result(out, (a,), vjp, "gelu")


def sum_(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis)

    def vjp(g):
        gg = np.asarray(g)
        if axis is not None:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _result(np.asarray(out), (a,), vjp, "sum")


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def vjp(g):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _result(out, tuple(tensors), vjp, "concat")


def slice_axis(a, axis: int, start: int, length: int) -> Tensor:
    a = _as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.data[idx].copy()

    def vjp(g):
        full = np.zeros(a.shape, dtype=a.data.dtype)
        full[idx] = g
        return (full,)

    return _result(out, (a,), vjp, "slice_axis")


def embedding(table, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` by integer ``ids`` (any leading shape)."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise UsageError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DomainError(
            f"embedding id out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros(table.shape, dtype=table.data.dtype)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return _result(out, (table,), vjp, "embedding")


def take_along_last(a, idx: np.ndarray) -> Tensor:
    """Pick one entry per last-dim row: out[...] = a[..., idx[...]]."""
    a = _as_tensor(a)
    idx = np.asarray(idx)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        full = np.zeros(a.shape, dtype=a.data.dtype)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return (full,)

    return _result(out, (a,), vjp, "take_along_last")


# ---------------------------------------------------------------------------
# linear algebra and normalization
# ---------------------------------------------------------------------------


@_overflow_to_inf
def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return ga, gb

    return _result(out, (a, b), vjp, "matmul")


def linear(x, weight, bias) -> Tensor:
    """Affine map ``x @ weight + bias`` broadcast over leading dims."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    out, vjp = _affine(x, weight, bias)
    return _result(out, (x, weight, bias), vjp, "linear")


@_overflow_to_inf
def _affine(x: Tensor, weight: Tensor, bias: Tensor):
    """The forward array and the VJP of :func:`linear`, unrecorded."""
    if weight.ndim != 2:
        raise DimensionError(f"linear weight must be 2-d, got {weight.shape}")
    k, n = weight.shape
    if x.shape[-1] != k:
        raise DimensionError(f"linear input width {x.shape[-1]} != weight rows {k}")
    if bias.shape != (n,):
        raise DimensionError(f"linear bias shape {bias.shape} != ({n},)")
    # one 2-d product: numpy runs a stack of (1, k) rows as one product per row
    out = (x.data.reshape(-1, k) @ weight.data).reshape(*x.shape[:-1], n) + bias.data

    def vjp(g):
        gx = g @ weight.data.T
        xr = x.data.reshape(-1, k)
        gr = g.reshape(-1, n)
        gw = xr.T @ gr
        gb = gr.sum(axis=0)
        return gx.reshape(x.shape), gw, gb

    return out, vjp


def softmax_lastdim(x) -> Tensor:
    """Stable softmax over the last dimension (max-subtraction)."""
    x = _as_tensor(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DomainError(f"softmax over empty last dimension, shape {x.shape}")
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out = e / s

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (x,), vjp, "softmax_lastdim")


def log_softmax_lastdim(x) -> Tensor:
    x = _as_tensor(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DomainError(f"log_softmax over empty last dimension, shape {x.shape}")
    m = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def vjp(g):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _result(out, (x,), vjp, "log_softmax_lastdim")


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Per-row (last dim) standardization followed by an affine map."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DomainError("layer_norm over empty last dimension")
    if eps <= 0:
        raise DomainError(f"layer_norm eps must be positive, got {eps}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match last dim {d}"
        )
    # np.add.reduce(...) / d is ndarray.mean's own sum and division, bit for
    # bit, without its Python-level dispatch.
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xn = xc * inv
    out = xn * gain.data + bias.data

    def vjp(g):
        gy = g * gain.data
        gmean = np.add.reduce(gy, axis=-1, keepdims=True) / d
        gproj = np.add.reduce(gy * xn, axis=-1, keepdims=True) / d
        gx = inv * (gy - gmean - xn * gproj)
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xn).sum(axis=lead)
        gbias = g.sum(axis=lead)
        return gx, ggain, gbias

    return _result(out, (x, gain, bias), vjp, "layer_norm")


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


@dataclass
class AttentionParams:
    """Projection weights for one multi-head attention layer."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def project_heads(x, weight, bias, heads: int) -> Tensor:
    """``linear(x, weight, bias)`` split into heads: (..., L, d) -> (..., heads, L, d/heads)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    flat, affine_vjp = _affine(x, weight, bias)
    *lead, L, d = flat.shape
    out = np.ascontiguousarray(flat.reshape(*lead, L, heads, d // heads).swapaxes(-3, -2))

    def vjp(g):
        return affine_vjp(g.swapaxes(-3, -2).reshape(flat.shape))

    return _result(out, (x, weight, bias), vjp, "project_heads")


@_overflow_to_inf
def attention(q, k, v, valid: np.ndarray | None, dropout: float,
              rng: np.random.Generator | None) -> Tensor:
    """Scaled dot-product attention over split heads, merged back to (..., L_q, d).

    ``q`` is (..., heads, L_q, e) and ``k``, ``v`` are (..., heads, L_kv, e),
    broadcasting over the leading axes.  ``valid`` (broadcastable to the
    logits, True = attend) replaces the other logits by ``MASKED_LOGIT``;
    None attends everywhere.  Probabilities are dropped with rate
    ``dropout`` when ``rng`` is given.  The logits are checked for
    finiteness before masking, and a query row left with no valid key is an
    error.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    scale = 1.0 / math.sqrt(q.shape[-1])
    kt = np.ascontiguousarray(k.data.swapaxes(-1, -2))
    logits = (q.data @ kt) * scale  # (..., heads, L_q, L_kv)
    _check_finite(logits, "attention logits")
    masked = logits
    if valid is not None:
        if not np.broadcast_to(valid, logits.shape).any(axis=-1).all():
            raise DomainError("attention row with every key/value position masked")
        masked = np.where(valid, logits, MASKED_LOGIT)
    exp = np.exp(masked - masked.max(axis=-1, keepdims=True))
    probs = exp / exp.sum(axis=-1, keepdims=True)
    dropped, keep = probs, None
    if dropout > 0.0 and rng is not None:
        keep = (rng.random(probs.shape) >= dropout).astype(probs.dtype) / (1.0 - dropout)
        dropped = probs * keep
    ctx = np.ascontiguousarray((dropped @ v.data).swapaxes(-3, -2))
    *lead, L_q, heads, width = ctx.shape
    out = ctx.reshape(*lead, L_q, heads * width)

    def vjp(g):
        # The VJPs of the head merge, ·v, dropout, softmax, mask, ·scale and
        # q kᵀ as separate ops would run them, on the same arrays, so that
        # the gradient bits do not depend on the fusion.
        g = g.reshape(ctx.shape).swapaxes(-3, -2)
        gp = _unbroadcast(g @ v.data.swapaxes(-1, -2), dropped.shape)
        gv = _unbroadcast(dropped.swapaxes(-1, -2) @ g, v.shape)
        if keep is not None:
            gp = _unbroadcast(gp * keep, probs.shape)
        gl = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
        if valid is not None:
            gl = _unbroadcast(np.where(valid, gl, 0.0), logits.shape)
        gl = gl * scale
        gq = _unbroadcast(gl @ kt.swapaxes(-1, -2), q.shape)
        gk = _unbroadcast(q.data.swapaxes(-1, -2) @ gl, kt.shape).swapaxes(-1, -2)
        return gq, gk, gv

    return _result(out, (q, k, v), vjp, "attention")


def project_kv(kv_in, params: AttentionParams, heads: int) -> tuple[Tensor, Tensor]:
    """Keys and values of ``kv_in`` (..., L_kv, d), split to (..., heads, L_kv, d/heads)."""
    return (project_heads(kv_in, params.wk, params.bk, heads),
            project_heads(kv_in, params.wv, params.bv, heads))


def multi_head_attention(
    q_in,
    kv_in,
    params: AttentionParams,
    heads: int,
    causal: bool = False,
    kv_padding_mask: np.ndarray | None = None,
    attn_dropout: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
    past_kv: tuple[Tensor, Tensor] | None = None,
):
    """Scaled dot-product multi-head attention with output projection.

    ``q_in`` is (..., L_q, d).  ``kv_in`` is either the raw (..., L_kv, d)
    rows, which act as both keys and values and are projected here after the
    queries, or a (k, v) pair that :func:`project_kv` already projected.

    ``past_kv`` is a (k, v) pair of cached keys and values that goes before
    those of ``kv_in``; with it the call returns ``(output, (k, v))``, where
    (k, v) covers the cached rows and the new ones, ready to be passed as the
    next call's ``past_kv``.  A ``past_kv`` of zero positions adds nothing
    and fits any leading shape: (k, v) are then ``kv_in``'s own.

    ``kv_padding_mask`` marks *valid* kv positions (True = attend) with shape
    (L_kv,) or (batch, L_kv), counting every key.  Causal attention requires
    L_q <= L_kv: the queries are the last L_q positions of the sequence, so
    query i may attend keys 0 .. i + L_kv - L_q.  A query row whose kv
    positions are all masked is an error, not a NaN.

    The tape records :func:`project_heads` for q, k and v (k and v only for
    raw ``kv_in``), a :func:`concat` each for k and v after a non-empty
    ``past_kv``, one :func:`attention` and the output :func:`linear`.
    """
    q_in = _as_tensor(q_in)
    d = q_in.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"model width {d} not divisible by heads {heads}")
    if isinstance(kv_in, tuple):
        k_shape = kv_in[0].shape
        kv_width, L_kv = k_shape[-3] * k_shape[-1], k_shape[-2]
    else:
        kv_in = _as_tensor(kv_in)
        kv_width, L_kv = kv_in.shape[-1], kv_in.shape[-2]
    if kv_width != d:
        raise DimensionError(f"query width {d} != key/value width {kv_width}")
    past = 0 if past_kv is None else past_kv[0].shape[-2]
    L_kv += past
    L_q = q_in.shape[-2]
    if causal and L_q > L_kv:
        raise DimensionError(f"causal attention needs L_q <= L_kv, got {L_q} vs {L_kv}")
    if L_kv == 0:
        raise DomainError("attention with zero key/value positions")

    q = project_heads(q_in, params.wq, params.bq, heads)
    k, v = kv_in if isinstance(kv_in, tuple) else project_kv(kv_in, params, heads)
    if past:
        k = concat([past_kv[0], k], axis=-2)
        v = concat([past_kv[1], v], axis=-2)

    valid = None
    causal = causal and L_q > 1  # a single query, the last position, sees every key
    if causal or kv_padding_mask is not None:
        valid = np.ones((L_q, L_kv), dtype=bool)
        if causal:
            valid = np.tril(valid, k=L_kv - L_q)
        if kv_padding_mask is not None:
            km = np.asarray(kv_padding_mask, dtype=bool)
            if km.shape[-1] != L_kv:
                raise DimensionError(f"kv_padding_mask length {km.shape[-1]} != L_kv {L_kv}")
            valid = valid & km.reshape(km.shape[:-1] + (1, 1, L_kv))

    out = linear(attention(q, k, v, valid, attn_dropout, dropout_rng), params.wo, params.bo)
    return out if past_kv is None else (out, (k, v))


# ---------------------------------------------------------------------------
# reverse pass and verification
# ---------------------------------------------------------------------------


def backward(output: Tensor, tape: GradTape) -> dict[Tensor, np.ndarray]:
    """Replay ``tape`` backwards from a scalar ``output``, popping each entry
    once its VJP has run: the tape is empty afterwards and cannot be replayed.

    Returns a dict, in no set order, with the gradient of each requires_grad
    leaf that the output reaches through the tape.  A leaf it does not reach
    has no entry; :func:`training.adam_step` reads a missing entry as zero.
    """
    if output.data.size != 1:
        raise UsageError(f"backward needs a scalar output, got shape {output.shape}")
    entries = tape._entries
    if not entries:
        raise UsageError("backward over an empty tape: it recorded no op or was replayed")
    # (tensor, gradient) by tensor id; an entry's pop takes its output's pair,
    # so the pairs left at the end are the leaves
    pairs: dict[int, tuple[Tensor, np.ndarray]] = {id(output): (output, np.ones_like(output.data))}
    while entries:
        out, inputs, vjp = entries.pop()
        pair = pairs.pop(id(out), None)
        if pair is None:
            continue
        for t, gi in zip(inputs, vjp(pair[1])):
            if t.requires_grad:
                acc = pairs.get(id(t))
                pairs[id(t)] = (t, gi if acc is None else acc[1] + gi)
    return dict(pairs.values())


GRADCHECK_STEP = 1e-6  # each probe moves one coordinate this far either way


def gradcheck(
    f: Callable[[Tensor], Tensor],
    point: Tensor | np.ndarray,
    exclusion_predicate: Callable[[int], bool] | None = None,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    Returns the max over probed coordinates of
    ``|analytic - fd| / max(1, |fd|)``.  ``exclusion_predicate(i)`` runs after
    flat coordinate i's two probes and may read what they left; True skips i,
    which is how callers drop probes across the fusion mask's hard threshold.
    ``max_coords`` probes a seeded random subset instead of every coordinate
    (needed for large parameter groups).
    """
    base = point.data if isinstance(point, Tensor) else np.asarray(point)
    if base.dtype != np.float64:
        raise UsageError("gradcheck requires float64 inputs")

    leaf = Tensor(base.copy(), requires_grad=True)
    with GradTape() as tape:
        out = f(leaf)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise UsageError("gradcheck function must return a scalar Tensor")
    analytic = backward(out, tape)[leaf].reshape(-1)

    n = base.size
    coords: Iterable[int]
    if max_coords is not None and max_coords < n:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = sorted(rng.choice(n, size=max_coords, replace=False).tolist())
    else:
        coords = range(n)

    flat = base.reshape(-1)
    max_err = 0.0
    for i in coords:
        probe = flat.copy()
        probe[i] = flat[i] + GRADCHECK_STEP
        f_plus = f(Tensor(probe.reshape(base.shape))).item()
        probe[i] = flat[i] - GRADCHECK_STEP
        f_minus = f(Tensor(probe.reshape(base.shape))).item()
        if exclusion_predicate is not None and exclusion_predicate(i):
            continue
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise DomainError(f"non-finite value while probing coordinate {i}")
        fd = (f_plus - f_minus) / (2.0 * GRADCHECK_STEP)
        err = abs(analytic[i] - fd) / max(1.0, abs(fd))
        if err > max_err:
            max_err = err
    return max_err
