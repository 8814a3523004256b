"""Hand-rolled differentiable primitives.

Every operation the trainer differentiates through lives here as an
analytic forward/backward pair; no autodiff framework is involved. The
tests verify each pair against central finite differences.

`exact_sum` sorts each row before adding it, so the fusion stage's pooled
sums do not depend on the order of the views, to the last bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "exact_sum",
    "affine_forward",
    "affine_backward",
    "gelu",
    "gelu_grad",
    "softplus",
    "softmax",
    "layernorm_forward",
    "layernorm_backward",
    "dropout_mask",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def exact_sum(arr: np.ndarray, axis: int) -> np.ndarray:
    """Order-independent sum along one axis: each row is sorted, then added
    in that order, smallest first, so any permutation of a row gives the
    same bits. A row of n finite entries is within the usual
    (n - 1) * 2**-53 * sum|x| of its exact sum. An overflow gives +-inf, and
    inf - inf or a nan gives nan, without a warning."""
    ordered = np.moveaxis(np.sort(np.asarray(arr, dtype=np.float64), axis=axis), axis, 0)
    out = np.zeros(ordered.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for x in ordered:
            out += x
    return out


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def affine_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of y = x @ w + b. Leading axes of x are batch axes."""
    gx = gy @ w.T
    x2 = x.reshape(-1, x.shape[-1])
    gy2 = gy.reshape(-1, gy.shape[-1])
    gw = x2.T @ gy2
    gb = gy2.sum(axis=0)
    return gx, gw, gb


def gelu(x: np.ndarray):
    """Exact (erf-based) GELU: (gelu(x), erf(x / sqrt(2))), the second
    for `gelu_grad`."""
    from scipy.special import erf  # on first use: generate, transform and report never call it

    erf_term = erf(x * _INV_SQRT2)
    return 0.5 * x * (1.0 + erf_term), erf_term


def gelu_grad(x: np.ndarray, erf_term: np.ndarray) -> np.ndarray:
    """d gelu / dx, with `erf_term` the erf(x / sqrt(2)) that `gelu` returns."""
    cdf = 0.5 * (1.0 + erf_term)
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return cdf + x * pdf


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed without overflow."""
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def layernorm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Normalize over the last axis, then apply the learned affine."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    y = xhat * gain + bias
    return y, (xhat, inv_std)


def layernorm_backward(gy: np.ndarray, cache, gain: np.ndarray):
    xhat, inv_std = cache
    gxhat = gy * gain
    mean_g = gxhat.mean(axis=-1, keepdims=True)
    mean_gx = (gxhat * xhat).mean(axis=-1, keepdims=True)
    gx = inv_std * (gxhat - mean_g - xhat * mean_gx)
    axes = tuple(range(gy.ndim - 1))
    ggain = (gy * xhat).sum(axis=axes)
    gbias = gy.sum(axis=axes)
    return gx, ggain, gbias


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout multiplier: kept entries carry 1 / (1 - rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)
