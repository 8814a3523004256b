"""The binary container shared by checkpoints and embedding banks: any
JSON header and payload round-trip, and every broken frame is a
FormatError."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fovalign.container import read_container, write_container
from fovalign.errors import FormatError

CONTAINER = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
MAGIC = b"TEST"

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _frame(magic: bytes, version: int, blob: bytes, payload: bytes = b"", length=None) -> bytes:
    size = len(blob) if length is None else length
    return magic + struct.pack("<II", version, size) + blob + payload


@CONTAINER
@given(header=JSON, payload=st.binary(max_size=64), version=st.integers(0, 2**32 - 1))
def test_round_trip(tmp_path, header, payload, version):
    path = tmp_path / "c.bin"
    # the payload is written chunk by chunk, in order
    half = len(payload) // 2
    write_container(path, MAGIC, version, header, [payload[:half], memoryview(payload)[half:]])
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    assert path.read_bytes() == _frame(MAGIC, version, blob, payload)
    got, body = read_container(path, MAGIC, version, "test")
    assert got == header
    assert isinstance(body, memoryview) and bytes(body) == payload


@CONTAINER
@given(magic=st.binary(max_size=4).filter(lambda m: m != MAGIC), payload=st.binary(max_size=16))
def test_wrong_magic_rejected(tmp_path, magic, payload):
    path = tmp_path / "c.bin"
    # a short magic is a file that ends inside it
    path.write_bytes(magic if len(magic) < 4 else _frame(magic, 1, b"{}", payload))
    with pytest.raises(FormatError, match="bad magic"):
        read_container(path, MAGIC, 1, "test")


@CONTAINER
@given(version=st.integers(0, 2**32 - 1).filter(lambda v: v != 1))
def test_wrong_version_rejected(tmp_path, version):
    path = tmp_path / "c.bin"
    path.write_bytes(_frame(MAGIC, version, b"{}"))
    with pytest.raises(FormatError, match=f"unsupported test version {version}"):
        read_container(path, MAGIC, 1, "test")


@CONTAINER
@given(prefix=st.binary(max_size=7))
def test_truncated_prefix_rejected(tmp_path, prefix):
    path = tmp_path / "c.bin"
    path.write_bytes(MAGIC + prefix)
    with pytest.raises(FormatError, match="truncated test header"):
        read_container(path, MAGIC, 1, "test")


@CONTAINER
@given(blob=st.binary(max_size=16), excess=st.integers(1, 2**32 - 1))
def test_header_length_past_end_rejected(tmp_path, blob, excess):
    path = tmp_path / "c.bin"
    length = min(len(blob) + excess, 2**32 - 1)
    path.write_bytes(_frame(MAGIC, 1, blob, length=length))
    with pytest.raises(FormatError, match="header runs past the end of the file"):
        read_container(path, MAGIC, 1, "test")


def _decodes(blob: bytes) -> bool:
    try:
        json.loads(blob.decode("utf-8"))
    except ValueError:
        return False
    return True


@CONTAINER
@given(
    blob=st.binary(max_size=24)
    | st.text(max_size=12).map(lambda t: t.encode("utf-8"))
    | st.sampled_from([b"\xff{}", b'{"a": \xc3}', b"{", b"[1,]", b"nul", b'"\xed\xa0\x80"']),
    payload=st.binary(max_size=8),
)
def test_header_bytes_decode_or_are_rejected(tmp_path, blob, payload):
    path = tmp_path / "c.bin"
    path.write_bytes(_frame(MAGIC, 1, blob, payload))
    if _decodes(blob):
        header, body = read_container(path, MAGIC, 1, "test")
        # compared as JSON text, since NaN is valid JSON and never equals itself
        assert json.dumps(header) == json.dumps(json.loads(blob.decode("utf-8")))
        assert bytes(body) == payload
    else:
        with pytest.raises(FormatError, match="malformed test header"):
            read_container(path, MAGIC, 1, "test")


def test_deeply_nested_header_rejected(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(_frame(MAGIC, 1, b"[" * 100_000))
    with pytest.raises(FormatError, match="malformed test header"):
        read_container(path, MAGIC, 1, "test")
