"""On-disk formats: P6 pixmaps and the binary checkpoint container."""

from __future__ import annotations

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fovalign.checkpoint import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from conftest import write_checkpoint_manifest
from fovalign.errors import FormatError
from fovalign.pixmap import read_pixmap, to_bytes_quantized, write_pixmap


class TestPixmap:
    def test_round_trip_exact_at_8_bit(self, tmp_path):
        # a float image's levels survive the file
        rng = np.random.default_rng(0)
        image = rng.random((3, 5, 7))
        levels = to_bytes_quantized(image)
        path = tmp_path / "img.ppm"
        write_pixmap(path, levels)
        np.testing.assert_array_equal(read_pixmap(path), levels)

    def test_round_trip_identity_on_quantized_input(self, tmp_path):
        rng = np.random.default_rng(1)
        levels = rng.integers(0, 256, (3, 4, 4), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_pixmap(path, levels)
        read = read_pixmap(path)
        assert read.dtype == np.uint8 and read.flags.c_contiguous
        np.testing.assert_array_equal(read, levels)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9).map(
        lambda hw: (3, *hw))))
    def test_any_levels_write_the_raster_and_read_back(self, tmp_path, levels):
        path = tmp_path / "img.ppm"
        write_pixmap(path, levels)
        _, height, width = levels.shape
        raster = levels.transpose(1, 2, 0).tobytes()
        assert path.read_bytes() == b"P6\n%d %d\n255\n" % (width, height) + raster
        read = read_pixmap(path)
        assert read.dtype == np.uint8 and read.flags.c_contiguous
        np.testing.assert_array_equal(read, levels)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_pixmap(path, np.zeros((3, 2, 3), dtype=np.uint8))
        data = path.read_bytes()
        assert data == b"P6\n3 2\n255\n" + bytes(2 * 3 * 3)

    def test_comments_in_header_skipped(self, tmp_path):
        raster = bytes(range(12))
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 # trailing\n2\n255\n" + raster)
        image = read_pixmap(path)
        assert image.shape == (3, 2, 2) and image.dtype == np.uint8
        np.testing.assert_array_equal(
            image.transpose(1, 2, 0).reshape(-1), np.frombuffer(raster, np.uint8)
        )

    def test_quantization_rounds_half_up(self):
        values = np.array([[[0.0, 1.0, 0.5 / 255.0, 1.49 / 255.0, 1.5 / 255.0]]])
        np.testing.assert_array_equal(
            to_bytes_quantized(values)[0, 0], [0, 255, 1, 1, 2]
        )

    @pytest.mark.parametrize(
        "payload",
        [
            b"P5\n2 2\n255\n" + bytes(12),  # wrong magic
            b"P6\n2 2\n65535\n" + bytes(24),  # unsupported maxval
            b"P6\n2 2\n255\n" + bytes(11),  # short raster
            b"P6\n0 2\n255\n",  # zero dimension
            b"P6\n2 x\n255\n" + bytes(12),  # non-numeric token
            b"P6\n32 32",  # header cut after the height
            b"P6\n2 2\n255",  # no byte after maxval
            b"P6\n2 2\n# note",  # a comment running to the end of the file
            b"P6\n+2 2\n255\n" + bytes(12),  # signed width
            b"P6\n1_2 1\n255\n" + bytes(36),  # digit separator
            b"P6\n02 2\n255\n" + bytes(12),  # leading zero
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, payload):
        path = tmp_path / "bad.ppm"
        path.write_bytes(payload)
        with pytest.raises(FormatError) as exc:
            read_pixmap(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("magic", [b"P6x", b"P66", b"P6\x00"])
    def test_magic_token_must_be_exactly_p6(self, tmp_path, magic):
        path = tmp_path / "bad.ppm"
        path.write_bytes(magic + b" 1 1 255\n" + bytes(3))
        with pytest.raises(FormatError, match="not a binary P6 pixmap"):
            read_pixmap(path)

    @pytest.mark.parametrize("extra", [1, 3, 100])
    def test_bytes_after_the_raster_rejected(self, tmp_path, extra):
        path = tmp_path / "long.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12 + extra))
        with pytest.raises(FormatError, match=f"raster has {12 + extra} bytes, expected 12"):
            read_pixmap(path)

    def test_bad_channel_count_rejected(self, tmp_path):
        # one channel is not replicated, and a fourth is not dropped
        path = tmp_path / "x.ppm"
        for shape in [(1, 2, 2), (4, 2, 2), (2, 2), (2, 2, 2)]:
            with pytest.raises(ValueError, match=re.escape(f"got dtype uint8 and shape {shape}")):
                write_pixmap(path, np.zeros(shape, dtype=np.uint8))
            assert not path.exists()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.bool_, np.float64])
    def test_integer_image_rejected(self, tmp_path, dtype):
        # only uint8 levels are written: a float image is quantized first,
        # and wider integers or bools are not levels
        path = tmp_path / "x.ppm"
        image = np.ones((3, 2, 2), dtype=dtype)
        if dtype is np.uint8:
            write_pixmap(path, image)
            assert path.read_bytes() == b"P6\n2 2\n255\n" + bytes([1] * 12)
            return
        with pytest.raises(ValueError, match=f"got dtype {np.dtype(dtype)}"):
            write_pixmap(path, image)
        assert not path.exists()

    def test_every_level_widens_to_the_read_and_back(self, tmp_path):
        # what a loaded dataset keeps (the read) and what the synthetic
        # provider widens it to (a division by 255 into a float scratch)
        # give transform's widening bits, for all 256 levels, and
        # quantizing the widening gives the levels back
        levels = np.arange(256, dtype=np.uint8).reshape(1, 16, 16).repeat(3, axis=0)
        path = tmp_path / "levels.ppm"
        write_pixmap(path, levels)
        image = read_pixmap(path)
        np.testing.assert_array_equal(image, levels)
        widened = np.empty(levels.shape)
        np.divide(image, 255.0, out=widened)
        assert widened.tobytes() == (image / 255.0).tobytes()
        np.testing.assert_array_equal(to_bytes_quantized(widened), levels)


def save_checkpoint_per_array(path, arrays, metadata):
    """The per-array writer the one-container saver replaced, kept as its
    oracle."""
    order = sorted(arrays)
    manifest = dict(metadata)
    manifest["arrays"] = [
        {"name": name, "shape": list(np.asarray(arrays[name]).shape)} for name in order
    ]
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in order:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f4").tobytes())


PARAMETER_DICTS = st.dictionaries(
    st.text(max_size=4),
    hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        # beyond float32's range a cast warns; infinities and NaN do not
        elements=st.floats(-3e38, 3e38) | st.sampled_from([np.inf, -np.inf, np.nan]),
    ),
    max_size=4,
)
METADATA = st.dictionaries(
    st.text(max_size=4).filter(lambda k: k != "arrays"),
    st.none() | st.integers() | st.text(max_size=4) | st.lists(st.integers(), max_size=3),
    max_size=3,
)


class TestCheckpoint:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays=PARAMETER_DICTS, metadata=METADATA)
    def test_bytes_equal_the_per_array_writer(self, tmp_path, arrays, metadata):
        save_checkpoint(tmp_path / "new.bick", arrays, metadata)
        save_checkpoint_per_array(tmp_path / "old.bick", arrays, metadata)
        assert (tmp_path / "new.bick").read_bytes() == (tmp_path / "old.bick").read_bytes()

    def test_duplicate_array_name_rejected(self, tmp_path):
        path = tmp_path / "ck.bick"
        table = [{"name": "a", "shape": [2]}, {"name": "a", "shape": [1]}]
        write_checkpoint_manifest(path, {"arrays": table}, payload=bytes(12))
        with pytest.raises(FormatError, match="array table"):
            load_checkpoint(path)

    def _arrays(self):
        rng = np.random.default_rng(7)
        return {
            "weight": rng.standard_normal((3, 4)),
            "bias": rng.standard_normal(4),
            "log_tau": np.array(-2.65926),
        }

    def test_round_trip_values_at_float32(self, tmp_path):
        arrays = self._arrays()
        path = tmp_path / "ck.bick"
        save_checkpoint(path, arrays, {"note": "hi", "epochs": 3})
        loaded, manifest = load_checkpoint(path)
        assert manifest["note"] == "hi" and manifest["epochs"] == 3
        assert set(loaded) == set(arrays)
        for name, ref in arrays.items():
            assert loaded[name].dtype == np.float64
            np.testing.assert_array_equal(
                loaded[name], np.asarray(ref, dtype=np.float32).astype(np.float64)
            )

    def test_second_round_trip_is_exact(self, tmp_path):
        # float64 -> float32 loses precision once; after that the cycle
        # is a fixed point
        first = tmp_path / "a.bick"
        second = tmp_path / "b.bick"
        save_checkpoint(first, self._arrays(), {})
        loaded, _ = load_checkpoint(first)
        save_checkpoint(second, loaded, {})
        reloaded, _ = load_checkpoint(second)
        for name in loaded:
            np.testing.assert_array_equal(loaded[name], reloaded[name])

    def test_byte_identical_across_saves(self, tmp_path):
        a, b = tmp_path / "a.bick", tmp_path / "b.bick"
        save_checkpoint(a, self._arrays(), {"k": 1})
        save_checkpoint(b, self._arrays(), {"k": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_layout(self, tmp_path):
        path = tmp_path / "ck.bick"
        save_checkpoint(path, {"w": np.zeros((2, 2))}, {"tag": "t"})
        data = path.read_bytes()
        assert data[:4] == CHECKPOINT_MAGIC
        version, blob_len = struct.unpack("<II", data[4:12])
        assert version == 1
        manifest = json.loads(data[12 : 12 + blob_len])
        assert manifest["arrays"] == [{"name": "w", "shape": [2, 2]}]
        assert manifest["tag"] == "t"
        assert len(data) == 12 + blob_len + 4 * 4

    def test_scalar_arrays_survive(self, tmp_path):
        path = tmp_path / "ck.bick"
        save_checkpoint(path, {"s": np.array(3.5)}, {})
        loaded, _ = load_checkpoint(path)
        assert loaded["s"].shape == ()
        assert float(loaded["s"]) == 3.5

    def test_reserved_metadata_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.bick", {"w": np.zeros(1)}, {"arrays": []})

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bick"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "ck.bick"
        save_checkpoint(path, self._arrays(), {})
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ck.bick"
        save_checkpoint(path, self._arrays(), {})
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "ck.bick"
        save_checkpoint(path, {"w": np.zeros(1)}, {})
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "table",
        [
            [{"shape": [1]}],
            "w",
            [{"name": "w", "shape": ["x"]}],
            [{"name": "w", "shape": [-1]}],
            [{"name": "w", "shape": [1.5]}],
            [{"name": "w", "shape": [True]}],
            [{"name": "w", "shape": 1}],
            [{"name": 7, "shape": [1]}],
            ["w"],
            [{"name": "w", "shape": [1], "dtype": "<f4"}],
        ],
        ids=[
            "entry-without-name", "table-is-string", "non-numeric-dim", "negative-dim",
            "fractional-dim", "boolean-dim", "shape-not-list", "name-not-string",
            "entry-not-object", "entry-with-extra-key",
        ],
    )
    def test_malformed_array_table_rejected(self, tmp_path, table):
        path = tmp_path / "ck.bick"
        write_checkpoint_manifest(path, {"arrays": table}, payload=bytes(4))
        with pytest.raises(FormatError, match="array table"):
            load_checkpoint(path)

    @pytest.mark.parametrize("manifest", [[], {"model": {}}], ids=["not-object", "no-arrays"])
    def test_manifest_without_an_array_table_rejected(self, tmp_path, manifest):
        path = tmp_path / "ck.bick"
        write_checkpoint_manifest(path, manifest)
        with pytest.raises(FormatError, match="checkpoint manifest lacks the array table"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[0, 2**63], [1] * 70], ids=["huge-extent", "70-axes"])
    def test_unrepresentable_shape_rejected(self, tmp_path, shape):
        path = tmp_path / "ck.bick"
        write_checkpoint_manifest(path, {"arrays": [{"name": "w", "shape": shape}]}, bytes(4))
        with pytest.raises(FormatError, match="cannot take shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected_by_name(self, tmp_path, bad):
        # NaN parameters would rank every retrieval query first
        path = tmp_path / "ck.bick"
        arrays = {"a": np.ones(2), "b": np.array([0.5, bad]), "c": np.full(3, bad)}
        save_checkpoint(path, arrays, {})
        with pytest.raises(FormatError, match="array 'b' contains non-finite values"):
            load_checkpoint(path)

    def test_signalling_nan_rejected_without_a_warning(self, tmp_path):
        # widening a float32 signalling NaN warns "invalid value in cast",
        # an error under the test settings, so the check comes first
        path = tmp_path / "ck.bick"
        write_checkpoint_manifest(path, {"arrays": [{"name": "w", "shape": []}]}, b"\x00\x00\x81\x7f")
        with pytest.raises(FormatError, match="array 'w' contains non-finite values"):
            load_checkpoint(path)

    def test_empty_dimension_reads_an_empty_array(self, tmp_path):
        path = tmp_path / "ck.bick"
        save_checkpoint(path, {"w": np.zeros((0, 3))}, {})
        loaded, _ = load_checkpoint(path)
        assert loaded["w"].shape == (0, 3)
