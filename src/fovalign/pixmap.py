"""Binary Portable Pixmap (P6) reading and writing, as 8-bit levels.

On disk an image is a plain P6 pixmap: 8-bit, maxval 255, three channels.
In memory it is the same bytes as a C-contiguous (3, height, width) uint8
array of levels: `read_pixmap` returns one and `write_pixmap` takes one,
and neither converts to float. Float images in [0, 1] exist only where
they are made or used; `to_bytes_quantized` turns one into levels. The
reader matches the header against one pattern, `_HEADER`, and every error
it raises names the file.
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


def read_pixmap(path) -> np.ndarray:
    """Read a binary P6 pixmap as its C-contiguous (3, H, W) uint8 levels."""
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
    return np.ascontiguousarray(pixels.transpose(2, 0, 1))


def to_bytes_quantized(image: np.ndarray) -> np.ndarray:
    """Quantize a float image in [0, 1] to uint8 with round-half-away rounding."""
    clipped = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    return np.floor(clipped * 255.0 + 0.5).astype(np.uint8)


def write_pixmap(path, levels: np.ndarray) -> None:
    """Write (3, H, W) uint8 levels, what `read_pixmap` returns, as a
    binary P6 pixmap. Any other dtype or shape is refused before the file
    is opened."""
    arr = np.asarray(levels)
    if arr.dtype != np.uint8 or arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) uint8 levels, got dtype {arr.dtype} "
                         f"and shape {arr.shape}; quantize a float image first")
    _, height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(arr.transpose(1, 2, 0).tobytes())
