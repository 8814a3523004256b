"""Hand-rolled differentiable primitives.

Every operation the trainer differentiates through lives here as an
analytic forward/backward pair; no autodiff framework is involved. The
tests verify each pair against central finite differences.

`exact_sum` is exactly rounded, bit for bit what math.fsum gives, which
makes the result independent of summand order. The fusion stage leans on
this where bit-level permutation invariance is required. It reduces all
rows at once: a vectorised TwoSum expansion along the axis, rounded once
as fsum rounds its partials. Its cost grows as the square of the axis
length, so it is meant for short axes such as the view axis; rows with a
non-finite input or result are handed to math.fsum itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

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
    """Exactly rounded sum along one axis: bit for bit `math.fsum` per row.

    Every row is reduced at once. Adding the entries one by one to a
    Shewchuk grow-expansion (Knuth's TwoSum against each component)
    leaves an exact, non-overlapping expansion of the row sum; fsum's
    final step then rounds it once, with masks in place of branches.
    The cost is n(n-1)/2 array TwoSums for an axis of length n, so the
    axis is meant to be short. Rows with a non-finite input or result
    go back through math.fsum, which gives inf and nan as before and
    raises OverflowError on intermediate overflow and ValueError on
    inf + -inf.
    """
    arr = np.asarray(arr, dtype=np.float64)
    moved = np.moveaxis(arr, axis, 0)
    cols = np.ascontiguousarray(moved).reshape(arr.shape[axis], math.prod(moved.shape[1:]))
    expansion: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are redone below
        for x in cols:
            for i, e in enumerate(expansion):
                s = x + e
                bb = s - x
                expansion[i] = (x - (s - bb)) + (e - bb)
                x = s
            expansion.append(x)
        out = _round_expansion(expansion, cols.shape[1])
    # an inf or nan entry reaches the top partial and so the result
    for row in np.flatnonzero(~np.isfinite(out)):
        out[row] = math.fsum(cols[:, row])
    return out.reshape(moved.shape[1:])


def _round_expansion(expansion: list[np.ndarray], rows: int) -> np.ndarray:
    """fsum's final rounding of non-overlapping partials, smallest first.

    Going down from the largest partial, hi takes in partials while they
    add exactly; the first inexact step leaves its error in lo and stops
    the row. Zeros may sit anywhere between the partials (fsum drops
    them): they add nothing, and the half-even correction looks past them
    to the nearest non-zero partial below the stop.
    """
    hi = expansion[-1] if expansion else np.zeros(rows)
    lo = np.zeros(rows)
    below = np.zeros(rows)
    stopped = np.zeros(rows, dtype=bool)
    for y in reversed(expansion[:-1]):
        total = hi + y
        rest = y - (total - hi)
        below = np.where(stopped & (below == 0.0), y, below)
        hi = np.where(stopped, hi, total)
        lo = np.where(stopped, lo, rest)
        stopped |= rest != 0.0
    # half-even rounding across partials: when the partial below carries
    # the sign of lo, the exact sum lies past the tie, so round away from
    # hi by 2 * lo if that addition is exact
    twice = 2.0 * lo
    nudged = hi + twice
    fix = (np.sign(lo) * np.sign(below) > 0.0) & (nudged - hi == twice)
    return np.where(fix, nudged, hi) + 0.0


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


def _gelu(x: np.ndarray):
    """Return (gelu(x), erf(x / sqrt(2))); `gelu_grad` can reuse the second."""
    erf_term = erf(x * _INV_SQRT2)
    return 0.5 * x * (1.0 + erf_term), erf_term


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU."""
    return _gelu(x)[0]


def gelu_grad(x: np.ndarray, erf_term: np.ndarray | None = None) -> np.ndarray:
    """d gelu / dx. `erf_term` is erf(x / sqrt(2)) as `_gelu` returns it;
    passing it skips computing it again and gives the same bits."""
    if erf_term is None:
        erf_term = erf(x * _INV_SQRT2)
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
