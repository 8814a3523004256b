"""Fuzzing of the five readers of outside input: the config parser, the
pixmap reader, the checkpoint reader, the embedding-bank reader and the
eval.csv reader of `report`. Each must return a valid object or raise its
documented error (ConfigError, FormatError; ProtocolError for a bank that
breaks the zero-shot split), which the CLI turns into exit code 2.
Anything else is a traceback."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rewrite_bank_header, write_checkpoint_manifest
from fovalign.checkpoint import load_checkpoint, save_checkpoint
from fovalign.cli import main
from fovalign.config import RunConfig, config_from_dict
from fovalign.errors import ConfigError, FormatError, ProtocolError
from fovalign import providers
from fovalign.pixmap import read_pixmap
from fovalign.providers import (
    BankHeader, EmbeddingBank, load_embedding_bank, save_embedding_bank,
)

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# values that often pass the type checks, so validation runs too
INTS = st.integers(-3, 160) | st.sampled_from([0, 1, 2**31, 2**63, 10**30])
NEAR_VALID = st.one_of(INTS, st.floats(-2.0, 2.0), st.lists(INTS, max_size=4))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _section_dicts(section: str):
    names = [f.name for f in dataclasses.fields(getattr(RunConfig(), section))]
    return st.dictionaries(
        st.sampled_from(names) | st.text(max_size=6), JSON | NEAR_VALID, max_size=5
    )


CONFIGS = st.one_of(
    JSON,
    st.fixed_dictionaries({}, optional={
        f.name: _section_dicts(f.name) | JSON for f in dataclasses.fields(RunConfig)
    }),
)


@FUZZ
@given(CONFIGS)
def test_config_from_dict(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    resolved = cfg.to_dict()
    assert config_from_dict(json.loads(json.dumps(resolved))).to_dict() == resolved


_TOKENS = st.one_of(
    st.integers(-2, 6).map(lambda n: str(n).encode()),
    st.sampled_from([b"255", b"+2", b"1_2", b"#"]),
    st.binary(max_size=3),
)
_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n", b""])


@st.composite
def pixmap_tails(draw):
    """What follows b"P6": arbitrary bytes; tokens that look like a header,
    then arbitrary bytes; or a width and a height token and maxval 255,
    then a raster of the size that int() reads from the two tokens, which
    a lenient reader would accept."""
    kind = draw(st.sampled_from(["bytes", "tokens", "header"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "tokens":
        parts = []
        for _ in range(draw(st.integers(0, 4))):
            parts += [draw(_SEPARATORS), draw(_TOKENS)]
        return b"".join(parts) + draw(_SEPARATORS) + draw(st.binary(max_size=160))
    width, height = draw(_TOKENS), draw(_TOKENS)
    gaps = [draw(_SEPARATORS.filter(bool)) for _ in range(3)] + [draw(st.sampled_from([b" ", b"\n"]))]
    try:
        size = 3 * int(width) * int(height)
    except ValueError:
        size = 0
    return b"".join(g + t for g, t in zip(gaps, (width, height, b"255", bytes(max(size, 0)))))


@FUZZ
@given(pixmap_tails())
def test_read_pixmap(scratch, tail):
    path = scratch / "image.ppm"
    path.write_bytes(b"P6" + tail)
    try:
        image = read_pixmap(path)
    except FormatError:
        return
    assert image.dtype == np.uint8 and image.ndim == 3 and image.shape[0] == 3
    assert image.flags.c_contiguous
    _, height, width = image.shape
    data = path.read_bytes()
    header, raster = data[: -3 * height * width], data[-3 * height * width :]
    assert image.transpose(1, 2, 0).tobytes() == raster
    tokens = re.sub(rb"#[^\n]*", b"", header).split()
    assert tokens == [b"P6", str(width).encode(), str(height).encode(), b"255"]


def _mutate(data: bytes, edits, limit: int) -> bytes:
    """Overwrite bytes within the first `limit` bytes of `data`."""
    out = bytearray(data)
    for position, value in edits:
        out[position % limit] = value
    return bytes(out)


BYTE_EDITS = st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=4)
SHAPES = st.one_of(
    st.lists(INTS, max_size=6),
    st.lists(st.just(1), min_size=60, max_size=70),  # more axes than NumPy allows
    JSON,
)
ARRAY_TABLES = st.lists(
    st.fixed_dictionaries({"name": st.text(max_size=3) | JSON, "shape": SHAPES}), max_size=3
) | JSON


def _check_checkpoint(path):
    try:
        arrays, manifest = load_checkpoint(path)
    except FormatError:
        return
    assert isinstance(manifest, dict)
    for entry in manifest["arrays"]:
        assert arrays[entry["name"]].dtype == np.float64


@pytest.fixture(scope="module")
def checkpoint_bytes(scratch):
    path = scratch / "reference.bick"
    rng = np.random.default_rng(0)
    save_checkpoint(path, {"w": rng.standard_normal((2, 3)), "b": np.zeros(3)}, {"seed": 1})
    return path.read_bytes()


@FUZZ
@given(table=ARRAY_TABLES, payload=st.binary(max_size=48))
def test_load_checkpoint_table(scratch, table, payload):
    path = scratch / "table.bick"
    write_checkpoint_manifest(path, {"arrays": table}, payload)
    _check_checkpoint(path)


@FUZZ
@given(edits=BYTE_EDITS)
def test_load_checkpoint_header_bytes(scratch, checkpoint_bytes, edits):
    (length,) = struct.unpack("<I", checkpoint_bytes[8:12])
    path = scratch / "mutated.bick"
    path.write_bytes(_mutate(checkpoint_bytes, edits, 12 + length))
    _check_checkpoint(path)


def _check_bank(path):
    """Load `path` in both modes, the payload read in chunks of fewer bytes
    than the reference bank's: both raise the same documented error, or
    both return the same valid bank, the one without its features."""
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(providers, "READ_BYTES", FUZZ_READ_BYTES)
        for features in (True, False):
            try:
                outcomes.append(load_embedding_bank(path, features=features))
            except (FormatError, ProtocolError) as exc:
                outcomes.append(exc)
    bank, bare = outcomes
    if isinstance(bank, Exception):
        assert (type(bare), str(bare)) == (type(bank), str(bank))
        return
    assert isinstance(bank, EmbeddingBank)
    assert bank.validate() is bank
    assert bare.features is None
    np.testing.assert_array_equal(bare.neural, bank.neural)
    assert all(getattr(bare, name) == getattr(bank, name) for name in BANK_FIELDS)


@pytest.fixture(scope="module")
def bank_bytes(scratch):
    rng = np.random.default_rng(1)
    n, views, dim_f, dim_n = 4, 2, 3, 2
    bank = EmbeddingBank(
        tag="fuzz", sample_count=n, views=views, dim_feature=dim_f, dim_neural=dim_n,
        kernel_levels=(1, 5), labels=tuple(range(n)), splits=("train", "train", "test", "test"),
        features=np.stack(
            [rng.standard_normal((n, views, dim_f)).astype(np.float32) for _ in (1, 5)], axis=1
        ),
        neural=rng.standard_normal((n, dim_n)).astype(np.float32),
    )
    path = scratch / "reference.bicp"
    save_embedding_bank(path, bank)
    return path.read_bytes()


BANK_FIELDS = tuple(f.name for f in dataclasses.fields(BankHeader))
# the reference bank's payload is 4 rows of 56 bytes: reads of three rows
# take it as a full chunk and a partial one
FUZZ_READ_BYTES = 3 * 56


@FUZZ
@given(changes=st.dictionaries(st.sampled_from(BANK_FIELDS), JSON | NEAR_VALID, min_size=1))
def test_load_embedding_bank_header_fields(scratch, bank_bytes, changes):
    path = scratch / "fields.bicp"
    path.write_bytes(bank_bytes)
    rewrite_bank_header(path, **changes)
    _check_bank(path)


@FUZZ
@given(edits=BYTE_EDITS)
def test_load_embedding_bank_header_bytes(scratch, bank_bytes, edits):
    (length,) = struct.unpack("<I", bank_bytes[8:12])
    path = scratch / "mutated.bicp"
    path.write_bytes(_mutate(bank_bytes, edits, 12 + length))
    _check_bank(path)


# float32 words that the payload check must refuse or accept without a
# warning: signalling and quiet NaNs, infinities, the largest finite value
# and a subnormal, little-endian
SPECIAL_WORDS = st.sampled_from([
    b"\x00\x00\x81\x7f", b"\x01\x00\x80\xff", b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x7f",
    b"\x00\x00\x80\xff", b"\xff\xff\x7f\x7f", b"\x01\x00\x00\x00",
])
WORD_EDITS = st.lists(st.tuples(st.integers(0, 2**16), SPECIAL_WORDS | st.binary(min_size=4, max_size=4)),
                      min_size=1, max_size=4)


@FUZZ
@given(edits=BYTE_EDITS, words=WORD_EDITS)
def test_load_embedding_bank_payload_bytes(scratch, bank_bytes, edits, words):
    (length,) = struct.unpack("<I", bank_bytes[8:12])
    start = 12 + length
    payload = bytearray(_mutate(bank_bytes[start:], edits, len(bank_bytes) - start))
    for index, word in words:  # whole float32 words, on their boundaries
        offset = 4 * (index % (len(payload) // 4))
        payload[offset : offset + 4] = word
    path = scratch / "payload.bicp"
    path.write_bytes(bank_bytes[:start] + bytes(payload))
    _check_bank(path)


# each numeric eval.csv column: an int cell is ASCII digits, a float cell
# ASCII text that float() reads, with no whitespace or "_"; then the range
EVAL_CELL_RULES = {
    "n": (int, 1, math.inf), "seed": (int, 0, math.inf), "trials": (int, 1, math.inf),
    "top1": (float, 0.0, 1.0), "top5": (float, 0.0, 1.0), "map": (float, 0.0, 1.0),
    "similarity": (float, -1.0, 1.0),
}
EVAL_CELLS = st.one_of(
    st.integers(-2, 12).map(str),
    st.floats(-1.5, 1.5).map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "1e-3", ".5", "1.", "+0.1", "007", "-0", ""]),
    # numbers in range that float() reads but a cell may not hold
    st.sampled_from(["0.2_5", "1_0", " 0.5", "0.5 ", "\t1", "\u0660.\u0665", "\u0661", "\uff11"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)


def _cell_within_rule(cell: str, kind, low, high) -> bool:
    if not cell.isascii() or "_" in cell or cell != cell.strip():
        return False
    if kind is int:
        return cell.isdigit() and low <= int(cell) <= high
    try:
        return low <= float(cell) <= high
    except ValueError:
        return False


@pytest.fixture(scope="module")
def report_config(scratch):
    run = scratch / "evals"
    run.mkdir()
    config = RunConfig().to_dict()
    config["paths"]["runs"] = [str(run)]
    path = scratch / "report.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, run / "eval.csv"


@st.composite
def eval_rows(draw):
    """The numeric cells of a valid eval.csv row, often with one of them
    replaced by a near-valid cell."""
    row = [
        draw(st.integers(low, 10**4).map(str) if kind is int else st.floats(low, high).map(repr))
        for kind, low, high in EVAL_CELL_RULES.values()
    ]
    if draw(st.booleans()):
        row[draw(st.integers(0, len(row) - 1))] = draw(EVAL_CELLS)
    return row


@FUZZ
@given(rows=st.lists(eval_rows(), min_size=1, max_size=2))
def test_report_eval_csv_cells(scratch, report_config, rows):
    config, eval_csv = report_config
    with open(eval_csv, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["subject", *EVAL_CELL_RULES]] + [["S", *row] for row in rows])
    out = scratch / "report"
    code = main(["report", "--config", str(config), "--out", str(out), "--force"])
    assert code in (0, 2)
    if code == 0:
        for row in rows:
            for cell, rule in zip(row, EVAL_CELL_RULES.values()):
                assert _cell_within_rule(cell, *rule), cell
        with open(out / "report.csv", encoding="utf-8", newline="") as fh:
            copied = list(csv.reader(fh))[1:]
        assert copied == [[str(eval_csv.parent), "S", *row] for row in rows]
