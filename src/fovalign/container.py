"""The binary container of checkpoints and embedding banks, little-endian:
4 magic bytes, a u32 format version, a u32 header length, that many bytes
of sorted-key UTF-8 JSON, then the payload the header describes. Each
format checks its own header and payload; this module checks the framing.
`read_header` leaves an open file at its payload, for a reader that
takes the payload in parts; `read_container` reads all of it.
"""

from __future__ import annotations

import json
import os
import struct

from .errors import FormatError

__all__ = ["write_container", "read_header", "read_container"]


def write_container(path, magic: bytes, version: int, header: dict, payload) -> None:
    """Write `header` and then the payload, an iterable of bytes-like
    chunks written in order, under `magic`."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", version, len(blob)) + blob)
        for chunk in payload:
            fh.write(chunk)


def read_header(fh, path, magic: bytes, version: int, what: str) -> tuple[object, int]:
    """(header, payload size in bytes) of the container file open as `fh`,
    left at the payload's first byte. The header length is checked against
    the file's size before the header is read. `what` names the format in
    error messages."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if head[:4] != magic:
        raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}")
    if len(head) < 12:
        raise FormatError(f"{path}: truncated {what} header")
    found, length = struct.unpack_from("<II", head, 4)
    if found != version:
        raise FormatError(f"{path}: unsupported {what} version {found}")
    if size < 12 + length:
        raise FormatError(f"{path}: {what} header runs past the end of the file")
    try:
        header = json.loads(str(fh.read(length), "utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise FormatError(f"{path}: malformed {what} header: {exc}") from exc
    return header, size - 12 - length


def read_container(path, magic: bytes, version: int, what: str) -> tuple[object, memoryview]:
    """(header, payload) of a container file, the payload a view of the
    bytes read after the header."""
    with open(path, "rb") as fh:
        header, _ = read_header(fh, path, magic, version, what)
        return header, memoryview(fh.read())
