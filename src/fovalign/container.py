"""The binary container of checkpoints and embedding banks, little-endian:
4 magic bytes, a u32 format version, a u32 header length, that many bytes
of sorted-key UTF-8 JSON, then the payload the header describes. Each
format checks its own header and payload; this module checks the framing.
"""

from __future__ import annotations

import json
import struct

from .errors import FormatError

__all__ = ["write_container", "read_container"]


def write_container(path, magic: bytes, version: int, header: dict, payload) -> None:
    """Write `header` and then the payload, an iterable of bytes-like
    chunks written in order, under `magic`."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", version, len(blob)) + blob)
        for chunk in payload:
            fh.write(chunk)


def read_container(path, magic: bytes, version: int, what: str) -> tuple[object, memoryview]:
    """(header, payload) of a container file, the payload a view of the
    bytes read. `what` names the format in error messages."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if data[:4] != magic:
        raise FormatError(f"{path}: bad magic {bytes(data[:4])!r}, expected {magic!r}")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated {what} header")
    found, length = struct.unpack_from("<II", data, 4)
    if found != version:
        raise FormatError(f"{path}: unsupported {what} version {found}")
    if len(data) < 12 + length:
        raise FormatError(f"{path}: {what} header runs past the end of the file")
    try:
        header = json.loads(str(data[12 : 12 + length], "utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise FormatError(f"{path}: malformed {what} header: {exc}") from exc
    return header, data[12 + length :]
