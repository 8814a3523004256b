"""Binary Portable Pixmap (P6) reading and writing.

Images travel through the package as float64 arrays of shape
(channels, height, width) with values in [0, 1]. On disk they are plain
P6 pixmaps: 8-bit, maxval 255, three channels. Single-channel arrays are
replicated to RGB on write.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError

__all__ = ["read_pixmap", "write_pixmap", "to_bytes_quantized"]


def _read_header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Return the first `count` whitespace-separated tokens, skipping
    '#' comments, plus the offset of the byte following the header."""
    tokens: list[bytes] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise FormatError("pixmap header ended unexpectedly")
        tokens.append(data[start:i])
    # exactly one whitespace byte separates the header from the raster
    if i >= n:
        raise FormatError("pixmap raster is missing")
    i += 1
    return tokens, i


def read_pixmap(path) -> np.ndarray:
    """Read a binary P6 pixmap into a (3, H, W) float64 array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P6":
        raise FormatError(f"{path}: not a binary P6 pixmap")
    tokens, offset = _read_header_tokens(data, 4)
    if tokens[0] != b"P6":
        raise FormatError(f"{path}: not a binary P6 pixmap (magic {tokens[0][:16]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric pixmap header") from exc
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad pixmap dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    expected = width * height * 3
    raster = data[offset:]
    if len(raster) != expected:
        raise FormatError(
            f"{path}: raster has {len(raster)} bytes, expected {expected}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return pixels.transpose(2, 0, 1).astype(np.float64) / 255.0


def to_bytes_quantized(image: np.ndarray) -> np.ndarray:
    """Quantize a float image in [0, 1] to uint8 with round-half-away rounding."""
    clipped = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    return np.floor(clipped * 255.0 + 0.5).astype(np.uint8)


def write_pixmap(path, image: np.ndarray) -> None:
    """Write a (C, H, W) float array in [0, 1] as a binary P6 pixmap."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected a (C, H, W) array, got shape {arr.shape}")
    channels, height, width = arr.shape
    if channels == 1:
        arr = np.repeat(arr, 3, axis=0)
    elif channels != 3:
        raise ValueError(f"pixmaps hold 1 or 3 channels, got {channels}")
    raster = to_bytes_quantized(arr).transpose(1, 2, 0).tobytes()
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(raster)
