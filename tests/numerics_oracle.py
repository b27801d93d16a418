"""The plain formulas that ``numerics`` replaced by cheaper forms of the same arithmetic.

Each op here is the earlier implementation, taped the same way, so a test
can pin the production op's outputs and gradients to it bit for bit:

* ``check_finite`` reduces through ``np.all`` instead of the array method;
* ``sigmoid`` gathers and scatters the two signs through boolean masks and
  clamps to bounds computed with ``np.nextafter`` on every call;
* ``layer_norm`` takes its means with ``ndarray.mean``;
* ``concat`` computes its split points with ``np.cumsum`` in the forward pass.
"""

from typing import Sequence

import numpy as np

from avfuse import numerics as N
from avfuse.errors import DomainError, UsageError
from avfuse.numerics import _as_tensor, _result


def check_finite(arr: np.ndarray, opname: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"non-finite values produced by {opname}")


def sigmoid(a) -> N.Tensor:
    a = _as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    one = x.dtype.type(1.0)
    zero = x.dtype.type(0.0)
    np.clip(out, np.nextafter(zero, one), np.nextafter(one, zero), out=out)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _result(out, (a,), vjp, "sigmoid")


def layer_norm(x, gain, bias, eps: float = 1e-5) -> N.Tensor:
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xn = xc * inv
    out = xn * gain.data + bias.data

    def vjp(g):
        gy = g * gain.data
        gmean = gy.mean(axis=-1, keepdims=True)
        gproj = (gy * xn).mean(axis=-1, keepdims=True)
        gx = inv * (gy - gmean - xn * gproj)
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xn).sum(axis=lead)
        gbias = g.sum(axis=lead)
        return gx, ggain, gbias

    return _result(out, (x, gain, bias), vjp, "layer_norm")


def concat(tensors: Sequence, axis: int = -1) -> N.Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result(out, tuple(tensors), vjp, "concat")
