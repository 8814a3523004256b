"""Biologically motivated image degradations used to build the views.

Images are numpy float64 arrays of shape (channels, height, width) with
values in [0, 1]; integer and bool arrays are refused. Conventions
committed here, relied on by the tests:

* Gaussian blur pads with edge-repeating reflection (numpy ``symmetric``,
  scipy.ndimage ``reflect``). With a normalized symmetric kernel this
  boundary preserves constants and the total brightness exactly.
* The blur is applied by matrix products, ``A_H @ X @ A_W^T``. ``A_n`` is
  the (n, n) operator of one separable pass with the reflect padding
  folded in, built once per (n, kernel size) in NumPy, bit for bit the
  scipy.ndimage ``correlate1d`` of the identity, and cached read-only. It
  agrees with the two-pass correlation to about 4e-16 per pixel. Kernel
  size 1 makes ``A_n`` the identity, so that blur applies no products: it
  returns ``clip(X + 0.0)``, the bits the products give (``-0.0`` comes
  back as ``+0.0``).
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


def _float_pixels(image) -> np.ndarray:
    """`image` as a float64 array. Integer and bool arrays are refused:
    8-bit levels run to 255, and read as intensities they clip to white."""
    arr = np.asarray(image)
    if arr.dtype.kind in "biu":
        raise ValueError(f"expected a float image in [0, 1], got dtype {arr.dtype}; "
                         "divide 8-bit levels by 255.0 first")
    return np.asarray(arr, dtype=np.float64)


def _check_image(image: np.ndarray) -> np.ndarray:
    arr = _float_pixels(image)
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


def _reflect(index: np.ndarray, n: int) -> np.ndarray:
    """Edge-repeating reflection of indices into [0, n), over any number
    of periods."""
    m = index % (2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


@functools.lru_cache(maxsize=256)
def _blur_operator(n: int, kernel_size: int) -> np.ndarray:
    """Read-only (n, n) matrix of one blur pass along an axis of length n.

    Row i holds the weights the reflect-padded correlation gives each
    input pixel at output i, so kernels wider than 2n fold over several
    reflection periods exactly as the correlation does. Each entry is
    summed in the order of scipy.ndimage's symmetric correlation, so the
    matrix equals ``correlate1d(np.eye(n), taps, mode="reflect")`` bit for
    bit: the centre tap first, then the tap pairs from the farthest in, a
    pair that reflects onto one column adding twice its weight at once.
    """
    taps = gaussian_kernel(kernel_size)
    radius = kernel_size // 2
    out = np.arange(n)
    offsets = np.arange(radius, 0, -1)[:, None]
    below, above = _reflect(out - offsets, n), _reflect(out + offsets, n)
    weight = np.broadcast_to(taps[radius - offsets], below.shape)
    same = below == above
    # every term in summation order: the centre taps, then (pair, side,
    # output); bincount adds the terms of each entry in input order
    index = np.concatenate([out * (n + 1), (n * out + np.stack([below, above], axis=1)).ravel()])
    terms = np.concatenate([
        np.full(n, taps[radius]),
        np.stack([np.where(same, 2.0 * weight, weight), np.where(same, 0.0, weight)], axis=1).ravel(),
    ])
    op = np.bincount(index, terms, minlength=n * n).reshape(n, n)
    op.flags.writeable = False
    return op


def gaussian_blur(image: np.ndarray, kernel_size: int) -> np.ndarray:
    """Separable Gaussian blur with edge-repeating reflect padding.

    kernel_size = 1 is the identity. The output is clipped to [0, 1],
    which is a no-op up to roundoff because blurring is a convex
    combination of in-range values.
    """
    return _blur(_check_image(image), kernel_size)


def _blur(arr: np.ndarray, kernel_size: int) -> np.ndarray:
    """gaussian_blur of an image already checked by _check_image."""
    if kernel_size == 1:  # the identity operator: its products hand back each pixel, -0.0 as +0.0
        return np.clip(arr + 0.0, 0.0, 1.0)
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
    # one buffer: the draw is scaled, offset by the image and clipped in
    # place; addition commutes, so these are the bits of clip(arr + noise)
    noise = rng.standard_normal(arr.shape)
    noise *= sigma / 255.0
    noise += arr
    return np.clip(noise, 0.0, 1.0, out=noise)


def _axis_sources(n_src: int, n_dst: int) -> np.ndarray:
    """Source coordinates of destination pixel centres along one axis."""
    return (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=256)
def _nearest_index(n_src: int, n_dst: int) -> np.ndarray:
    """Read-only source index of each destination pixel along one axis."""
    src = _axis_sources(n_src, n_dst)
    return _read_only(np.clip(np.floor(src + 0.5).astype(np.int64), 0, n_src - 1))


@functools.lru_cache(maxsize=256)
def _mosaic_index(n: int, n_small: int) -> np.ndarray:
    """The nearest pass down to n_small and back up to n, as one read-only index."""
    return _read_only(_nearest_index(n, n_small)[_nearest_index(n_small, n)])


@functools.lru_cache(maxsize=256)
def _linear_table(n_src: int, n_dst: int) -> tuple:
    """Read-only (lo_idx, hi_idx, 1 - frac, frac) of a bilinear pass along one axis."""
    src = _axis_sources(n_src, n_dst)
    lo = np.floor(src)
    frac = src - lo
    lo_idx = np.clip(lo.astype(np.int64), 0, n_src - 1)
    hi_idx = np.clip(lo.astype(np.int64) + 1, 0, n_src - 1)
    return tuple(map(_read_only, (lo_idx, hi_idx, 1.0 - frac, frac)))


def _gather_linear(arr: np.ndarray, axis: int, n_dst: int) -> np.ndarray:
    """One bilinear pass along `axis`: keep * a + frac * b, a and b the
    gathered neighbours, made in those two buffers with no other temporary."""
    lo_idx, hi_idx, keep, frac = _linear_table(arr.shape[axis], n_dst)
    shape = [1] * arr.ndim
    shape[axis] = n_dst
    a = np.take(arr, lo_idx, axis=axis)
    b = np.take(arr, hi_idx, axis=axis)
    a *= keep.reshape(shape)
    b *= frac.reshape(shape)
    a += b
    return a


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
    if mode == "nearest":  # a gather of a gather is one gather
        rows, cols = _mosaic_index(height, h_small), _mosaic_index(width, w_small)
        return np.take(np.take(arr, rows, axis=1), cols, axis=2)
    small = _gather_linear(_gather_linear(arr, 1, h_small), 2, w_small)
    return _gather_linear(_gather_linear(small, 1, height), 2, width)
