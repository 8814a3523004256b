"""Binary Portable Pixmap (P6) reading and writing.

The reader, the writer, the views and the encoder take float64 arrays of
shape (channels, height, width) with values in [0, 1], and refuse integer
and bool arrays. A loaded dataset keeps each image as its uint8 levels,
which the synthetic provider widens one at a time. On disk they are plain
P6 pixmaps: 8-bit, maxval 255, three channels. Single-channel arrays are
replicated to RGB on write. The reader matches the header against one
pattern, `_HEADER`, and every error it raises names the file.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError

__all__ = ["read_pixmap", "write_pixmap", "to_bytes_quantized"]


# "P6", then width, height and maxval as decimal numerals of at most nine
# digits (past any raster held in memory, and within what int() reads),
# apart by whitespace and "#" comments, then one whitespace byte. A token
# must end at whitespace, (?!\S), and a comment at the end of its line,
# (?![^\n]), so an input matches one way or not at all and a refused
# header costs time linear in its length.
_GAP = rb"(?:\s|#[^\n]*(?![^\n]))*"
_NUMBER = rb"(0|[1-9][0-9]{0,8})"
_HEADER = re.compile(rb"P6(?!\S)" + (_GAP + _NUMBER + rb"(?!\S)") * 2 + _GAP + _NUMBER + rb"\s")


def _float_pixels(image) -> np.ndarray:
    """`image` as a float64 array. Integer and bool arrays are refused:
    8-bit levels run to 255, and read as intensities they clip to white."""
    arr = np.asarray(image)
    if arr.dtype.kind in "biu":
        raise ValueError(f"expected a float image in [0, 1], got dtype {arr.dtype}; "
                         "divide 8-bit levels by 255.0 first")
    return np.asarray(arr, dtype=np.float64)


def read_pixmap(path) -> np.ndarray:
    """Read a binary P6 pixmap into a (3, H, W) float64 array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _HEADER.match(data)
    if header is None:
        raise FormatError(
            f"{path}: not a binary P6 pixmap: expected P6, then width, height and maxval "
            "as decimal numerals of at most 9 digits, then one whitespace byte"
        )
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad pixmap dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    expected = width * height * 3
    raster = data[header.end():]
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
    arr = _float_pixels(image)
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
