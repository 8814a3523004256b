"""Binary checkpoint format for trained parameters.

A checkpoint is a `container` file with magic b"BICK" and version 1. Its
header, the manifest, carries an "arrays" list of {name, shape} sorted by
name, plus run metadata (config hash, views, dims, ...); the payload is
the arrays as `<f4`, row-major, in manifest order.

Parameters are trained in float64 and stored as float32; `load_checkpoint`
returns float64 arrays, so a save/load round trip is exact at float32
precision and bit-stable across runs. It rejects an array holding NaN or
inf, which would otherwise rank every retrieval query first.
"""

from __future__ import annotations

import math

import numpy as np

from .container import read_container, write_container
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
    payload = b"".join(np.ascontiguousarray(arrays[name], dtype="<f4").tobytes() for name in order)
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, manifest, payload)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    manifest, payload = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    if not isinstance(manifest, dict) or "arrays" not in manifest:
        raise FormatError(f"{path}: checkpoint manifest lacks the array table")
    table = manifest["arrays"]
    if not isinstance(table, list) or not all(_is_array_entry(e) for e in table):
        raise FormatError(
            f"{path}: checkpoint array table must list {{name, shape}} entries "
            f"with a string name and non-negative integer dimensions"
        )
    if len({entry["name"] for entry in table}) != len(table):
        raise FormatError(f"{path}: checkpoint array table names an array twice")
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
        if not np.all(np.isfinite(arrays[name])):
            raise FormatError(f"{path}: array {name!r} contains non-finite values")
        offset += nbytes
    if offset != len(payload):
        raise FormatError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return arrays, manifest
