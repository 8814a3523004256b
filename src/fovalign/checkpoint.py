"""Binary checkpoint format for trained parameters.

Layout (little-endian):

    magic  b"BICK"
    u32    format version (currently 1)
    u32    manifest length, then that many bytes of UTF-8 JSON; the
           manifest carries an "arrays" list of {name, shape} in payload
           order plus run metadata (config hash, views, dims, ...)
    f32[]  the arrays, row-major, in manifest order

Parameters are trained in float64 and stored as float32; `load_checkpoint`
returns float64 arrays, so a save/load round trip is exact at float32
precision and bit-stable across runs.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import FormatError

__all__ = ["CHECKPOINT_MAGIC", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"BICK"
CHECKPOINT_VERSION = 1


def _is_array_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in entry["shape"])
    )


def save_checkpoint(path, arrays: dict[str, np.ndarray], metadata: dict) -> None:
    if "arrays" in metadata:
        raise ValueError('metadata key "arrays" is reserved')
    order = sorted(arrays)
    manifest = dict(metadata)
    manifest["arrays"] = [
        {"name": name, "shape": list(np.asarray(arrays[name]).shape)} for name in order
    ]
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in order:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        head = fh.read(8)
        if len(head) != 8:
            raise FormatError(f"{path}: truncated checkpoint header")
        version, manifest_len = struct.unpack("<II", head)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        blob = fh.read(manifest_len)
        if len(blob) != manifest_len:
            raise FormatError(f"{path}: truncated checkpoint manifest")
        try:
            manifest = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: malformed checkpoint manifest: {exc}") from exc
        if not isinstance(manifest, dict) or "arrays" not in manifest:
            raise FormatError(f"{path}: checkpoint manifest lacks the array table")
        payload = fh.read()
    table = manifest["arrays"]
    if not isinstance(table, list) or not all(_is_array_entry(e) for e in table):
        raise FormatError(
            f"{path}: checkpoint array table must list {{name, shape}} entries "
            f"with a string name and non-negative integer dimensions"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in table:
        name, shape = entry["name"], tuple(entry["shape"])
        nbytes = math.prod(shape) * 4
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise FormatError(f"{path}: payload ended inside array {name!r}")
        try:
            arrays[name] = np.frombuffer(chunk, dtype="<f4").astype(np.float64).reshape(shape)
        except ValueError as exc:  # more axes, or a larger extent, than NumPy allows
            raise FormatError(f"{path}: array {name!r} cannot take shape {list(shape)}") from exc
        offset += nbytes
    if offset != len(payload):
        raise FormatError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return arrays, manifest
