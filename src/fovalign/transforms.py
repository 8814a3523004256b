"""Biologically motivated image degradations used to build the views.

Images are numpy float64 arrays of shape (channels, height, width) with
values in [0, 1]. Conventions committed here, relied on by the tests:

* Gaussian blur pads with edge-repeating reflection (numpy ``symmetric``,
  scipy.ndimage ``reflect``). With a normalized symmetric kernel this
  boundary preserves constants and the total brightness exactly.
* The blur is applied by matrix products, ``A_H @ X @ A_W^T``. ``A_n`` is
  the (n, n) operator of one separable pass with the reflect padding
  folded in, built once per (n, kernel size) by running the separable
  correlation on the identity and cached read-only. It agrees with the
  two-pass correlation to about 4e-16 per pixel.
* The blur width is tied to the kernel size by
  ``sigma = 0.3 * ((k - 1) / 2 - 1) + 0.8``, the convention mainstream
  image libraries use when only a size is given.
* Resampling maps destination pixel centres through a top-left-aligned
  half-pixel-centre grid: ``src = (dst + 0.5) * (in/out) - 0.5``.
  Nearest-neighbour rounds halves up (ties go to the larger index);
  bilinear clamps source coordinates to the valid range at the borders.
* Randomness comes from numpy's PCG64 (``np.random.default_rng``) seeded
  explicitly, so every transform is a pure function of (inputs, seed).
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from scipy import ndimage

__all__ = [
    "foveation_mask",
    "gaussian_blur",
    "gaussian_kernel",
    "foveate",
    "add_noise",
    "resample",
]


def _check_kernel_size(k: int) -> None:
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel size must be an odd integer >= 1, got {k}")


def _check_image(image: np.ndarray) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
        raise ValueError(f"expected a (C, H, W) image, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite values")
    return arr


def foveation_mask(
    height: int,
    width: int,
    center: tuple[int, int],
    gamma: float,
) -> np.ndarray:
    """Exponential acuity falloff exp(-gamma * d / D) on an H x W grid.

    d is the Euclidean distance from the centre pixel and D the largest
    such distance on the grid, so values lie in (0, 1] with exactly 1 at
    the centre. The mask is 90-degree rotation symmetric whenever the
    focus sits at the middle of a square grid with odd side.
    """
    if height < 1 or width < 1:
        raise ValueError(f"mask dimensions must be >= 1, got {height}x{width}")
    row, col = center
    if not (0 <= row < height and 0 <= col < width):
        raise ValueError(f"center {center} outside a {height}x{width} grid")
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    rows = np.arange(height, dtype=np.float64)[:, None] - float(row)
    cols = np.arange(width, dtype=np.float64)[None, :] - float(col)
    dist = np.hypot(rows, cols)
    farthest = float(dist.max())
    if farthest == 0.0:  # 1x1 grid: the focus is the whole image
        return np.ones((height, width))
    with np.errstate(over="ignore"):  # a huge gamma overflows to -inf, and exp(-inf) is 0
        return np.exp(-gamma * dist / farthest)


def gaussian_kernel(kernel_size: int) -> np.ndarray:
    """Normalized 1-D Gaussian taps for the committed sigma(k) rule."""
    _check_kernel_size(kernel_size)
    sigma = 0.3 * ((kernel_size - 1) / 2.0 - 1.0) + 0.8
    offsets = np.arange(kernel_size, dtype=np.float64) - (kernel_size - 1) / 2.0
    taps = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return taps / taps.sum()


@functools.lru_cache(maxsize=256)
def _blur_operator(n: int, kernel_size: int) -> np.ndarray:
    """Read-only (n, n) matrix of one blur pass along an axis of length n.

    Row i holds the weights the reflect-padded correlation gives each
    input pixel at output i, so kernels wider than 2n fold over several
    reflection periods exactly as the correlation does.
    """
    op = ndimage.correlate1d(
        np.eye(n), gaussian_kernel(kernel_size), axis=0, mode="reflect"
    )
    op.flags.writeable = False
    return op


def gaussian_blur(image: np.ndarray, kernel_size: int) -> np.ndarray:
    """Separable Gaussian blur with edge-repeating reflect padding.

    kernel_size = 1 is the identity. The output is clipped to [0, 1],
    which is a no-op up to roundoff because blurring is a convex
    combination of in-range values.
    """
    arr = _check_image(image)
    _check_kernel_size(kernel_size)
    return _blur(arr, kernel_size)


def _blur(arr: np.ndarray, kernel_size: int) -> np.ndarray:
    """gaussian_blur of an image already checked by _check_image."""
    _, height, width = arr.shape
    rows = _blur_operator(height, kernel_size)
    cols = _blur_operator(width, kernel_size)
    return np.clip(np.matmul(np.matmul(rows, arr), cols.T), 0.0, 1.0)


@functools.lru_cache(maxsize=64)
def _cached_mask(height: int, width: int, center: tuple[int, int], gamma: float) -> np.ndarray:
    mask = foveation_mask(height, width, center, gamma)
    mask.flags.writeable = False
    return mask


def foveate(image: np.ndarray, kernel_size: int, center: tuple[int, int] | None,
            gamma: float) -> np.ndarray:
    """Blend the image with its blurred copy under the acuity mask.

    output = M * image + (1 - M) * blur_k(image), elementwise per channel,
    with M the foveation mask around `center`, a (row, col) pixel or None
    for the image centre (height // 2, width // 2), and k `kernel_size`.
    Linear in the image (blur and blend are linear maps; the final clip
    never binds for in-range inputs).
    """
    arr = _check_image(image)
    _, height, width = arr.shape
    center = (height // 2, width // 2) if center is None else center
    mask = _cached_mask(height, width, tuple(operator.index(c) for c in center), gamma)
    blurred = _blur(arr, kernel_size)
    out = mask[None, :, :] * arr + (1.0 - mask[None, :, :]) * blurred
    return np.clip(out, 0.0, 1.0)


def add_noise(image: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Additive Gaussian pixel noise, sigma given on the 0..255 scale.

    output = clip(image + n / 255) with n ~ N(0, sigma^2) drawn from
    PCG64 seeded with `seed`. sigma = 0 returns the input unchanged.
    """
    arr = _check_image(image)
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return arr.copy()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(arr.shape) * (sigma / 255.0)
    return np.clip(arr + noise, 0.0, 1.0)


def _axis_sources(n_src: int, n_dst: int) -> np.ndarray:
    """Source coordinates of destination pixel centres along one axis."""
    return (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5


def _gather_nearest(arr: np.ndarray, axis: int, n_dst: int) -> np.ndarray:
    n_src = arr.shape[axis]
    src = _axis_sources(n_src, n_dst)
    idx = np.clip(np.floor(src + 0.5).astype(np.int64), 0, n_src - 1)
    return np.take(arr, idx, axis=axis)


def _gather_linear(arr: np.ndarray, axis: int, n_dst: int) -> np.ndarray:
    n_src = arr.shape[axis]
    src = _axis_sources(n_src, n_dst)
    lo = np.floor(src)
    frac = src - lo
    lo_idx = np.clip(lo.astype(np.int64), 0, n_src - 1)
    hi_idx = np.clip(lo.astype(np.int64) + 1, 0, n_src - 1)
    shape = [1] * arr.ndim
    shape[axis] = n_dst
    weight = frac.reshape(shape)
    a = np.take(arr, lo_idx, axis=axis)
    b = np.take(arr, hi_idx, axis=axis)
    return (1.0 - weight) * a + weight * b


def resample(image: np.ndarray, scale: float, mode: str) -> np.ndarray:
    """Downsample by `scale` and resize back to the input size.

    mode is "bilinear" (low-resolution view) or "nearest" (mosaic view).
    Both passes use the half-pixel-centre grid documented at module
    level. scale = 1 is an exact identity.
    """
    arr = _check_image(image)
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    if mode not in ("bilinear", "nearest"):
        raise ValueError(f"unknown resampling mode {mode!r}")
    _, height, width = arr.shape
    h_small = int(np.floor(height * scale))
    w_small = int(np.floor(width * scale))
    if h_small < 1 or w_small < 1:
        raise ValueError(
            f"scale {scale} collapses a {height}x{width} image below one pixel"
        )
    gather = _gather_nearest if mode == "nearest" else _gather_linear
    small = gather(gather(arr, 1, h_small), 2, w_small)
    return gather(gather(small, 1, height), 2, width)
