"""Binary checkpoint format for trained parameters.

A checkpoint is a `container` file with magic b"BICK" and version 1. Its
header, the manifest, carries an "arrays" list of `_ArrayEntry` objects
{name, shape} sorted by name, plus run metadata (the model record, config
hash, ...); the payload is the arrays as `<f4`, row-major, in manifest
order.

Parameters are trained in float64 and stored as float32; `load_checkpoint`
returns float64 arrays, so a save/load round trip is exact at float32
precision and bit-stable across runs. It rejects an array holding NaN or
inf, which would otherwise rank every retrieval query first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import _at_least, parse_record
from .container import read_container, write_container
from .errors import FormatError

__all__ = ["CHECKPOINT_MAGIC", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_MAGIC = b"BICK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class _ArrayEntry:
    name: str
    shape: Annotated[tuple[int, ...], _at_least(0)]


def save_checkpoint(path, arrays: dict[str, np.ndarray], metadata: dict) -> None:
    if "arrays" in metadata:
        raise ValueError('metadata key "arrays" is reserved')
    order = sorted(arrays)
    manifest = dict(metadata)
    manifest["arrays"] = [
        {"name": name, "shape": list(np.asarray(arrays[name]).shape)} for name in order
    ]
    payload = (np.ascontiguousarray(arrays[name], dtype="<f4") for name in order)
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, manifest, payload)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    manifest, payload = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    if not isinstance(manifest, dict) or "arrays" not in manifest:
        raise FormatError(f"{path}: checkpoint manifest lacks the array table")
    where = f"{path}: checkpoint array table"
    table = parse_record(tuple[_ArrayEntry, ...], manifest["arrays"], where, FormatError)
    if len({entry.name for entry in table}) != len(table):
        raise FormatError(f"{where} names an array twice")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in table:
        name, shape = entry.name, entry.shape
        nbytes = math.prod(shape) * 4
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise FormatError(f"{path}: payload ended inside array {name!r}")
        try:
            values = np.frombuffer(chunk, dtype="<f4").reshape(shape)
        except ValueError as exc:  # more axes, or a larger extent, than NumPy allows
            raise FormatError(f"{path}: array {name!r} cannot take shape {list(shape)}") from exc
        # checked before widening: a signalling NaN makes the cast warn
        if not np.all(np.isfinite(values)):
            raise FormatError(f"{path}: array {name!r} contains non-finite values")
        arrays[name] = values.astype(np.float64)
        offset += nbytes
    if offset != len(payload):
        raise FormatError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return arrays, manifest
