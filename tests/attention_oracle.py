"""The composite multi-head attention that ``numerics.attention`` replaces.

Every step is its own taped op: the head split and merge are ``reshape`` and
``swapaxes``, the mask is ``where_mask``, and the logits, softmax, dropout
and context are ``matmul``, ``mul`` and ``softmax_lastdim``.  The fused ops
must reproduce its outputs and gradients bit for bit.
"""

import math

import numpy as np

from avfuse import numerics as N
from avfuse.numerics import _as_tensor, _result, _unbroadcast


def reshape(a, shape) -> N.Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)
    return _result(out, (a,), lambda g: (g.reshape(a.shape),), "reshape")


def swapaxes(a, ax1: int, ax2: int) -> N.Tensor:
    a = _as_tensor(a)
    out = np.ascontiguousarray(np.swapaxes(a.data, ax1, ax2))
    return _result(out, (a,), lambda g: (np.swapaxes(g, ax1, ax2),), "swapaxes")


def where_mask(mask: np.ndarray, a, fill: float) -> N.Tensor:
    """Keep ``a`` where ``mask`` is True, replace by the constant ``fill`` elsewhere."""
    a = _as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, a.data.dtype.type(fill))

    def vjp(g):
        return (_unbroadcast(np.where(mask, g, 0.0), a.shape),)

    return _result(out, (a,), vjp, "where_mask")


def _split_heads(t: N.Tensor, heads: int) -> N.Tensor:
    *lead, L, d = t.shape
    h = reshape(t, (*lead, L, heads, d // heads))
    return swapaxes(h, -3, -2)  # (..., heads, L, d/heads)


def _merge_heads(t: N.Tensor) -> N.Tensor:
    *lead, heads, L, e = t.shape
    h = swapaxes(t, -3, -2)
    return reshape(h, (*lead, L, heads * e))


def project_kv(kv_in, params: N.AttentionParams, heads: int):
    kv_in = _as_tensor(kv_in)
    k = _split_heads(N.linear(kv_in, params.wk, params.bk), heads)
    v = _split_heads(N.linear(kv_in, params.wv, params.bv), heads)
    return k, v


def multi_head_attention(q_in, kv_in, params: N.AttentionParams, heads: int,
                         causal: bool = False, kv_padding_mask=None,
                         attn_dropout: float = 0.0, dropout_rng=None, past_kv=None):
    """``numerics.multi_head_attention`` as one taped op per step."""
    q_in = _as_tensor(q_in)
    d = q_in.shape[-1]
    if not isinstance(kv_in, tuple):
        kv_in = _as_tensor(kv_in)
    past = 0 if past_kv is None else past_kv[0].shape[-2]
    L_q = q_in.shape[-2]

    q = _split_heads(N.linear(q_in, params.wq, params.bq), heads)
    k, v = kv_in if isinstance(kv_in, tuple) else project_kv(kv_in, params, heads)
    if past:
        k = N.concat([past_kv[0], k], axis=-2)
        v = N.concat([past_kv[1], v], axis=-2)
    L_kv = k.shape[-2]

    scale = 1.0 / math.sqrt(d / heads)
    logits = N.mul(N.matmul(q, swapaxes(k, -1, -2)), scale)  # (..., heads, L_q, L_kv)

    valid = np.ones((L_q, L_kv), dtype=bool)
    if causal:
        valid = np.tril(valid, k=L_kv - L_q)
    if kv_padding_mask is not None:
        km = np.asarray(kv_padding_mask, dtype=bool)
        valid = valid & km.reshape(km.shape[:-1] + (1, 1, L_kv))
    if causal or kv_padding_mask is not None:
        logits = where_mask(valid, logits, N.MASKED_LOGIT)

    probs = N.softmax_lastdim(logits)
    if attn_dropout > 0.0 and dropout_rng is not None:
        keep = (dropout_rng.random(probs.shape) >= attn_dropout).astype(probs.data.dtype)
        probs = N.mul(probs, keep / (1.0 - attn_dropout))

    ctx = _merge_heads(N.matmul(probs, v))
    out = N.linear(ctx, params.wo, params.bo)
    return out if past_kv is None else (out, (k, v))
