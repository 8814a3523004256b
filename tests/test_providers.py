"""Feature providers: frozen encoder, embedding bank, level selection."""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    ABSENT, einsum_encode, level_block, random_image, random_levels, rewrite_bank_header, tiny_bank,
)
from fovalign.config import TransformConfig, ViewsConfig
from fovalign.errors import FormatError, ProtocolError
from fovalign import container, providers
from fovalign.providers import (
    BANK_MAGIC,
    BLOCK,
    POOL_GRID,
    BankHeader,
    BankProvider,
    EmbeddingBank,
    SyntheticEncoder,
    SyntheticProvider,
    derive_noise_seed,
    load_embedding_bank,
    save_embedding_bank,
)


def column_row_windows(n: int) -> tuple:
    """`providers._row_windows` with every step's weights kept as a
    (POOL_GRID, 1) column, equal or not."""
    mat = providers._pool_matrix(n, POOL_GRID)
    starts = np.argmax(mat > 0, axis=1)
    lengths = np.count_nonzero(mat, axis=1)
    steps = []
    for o in range(int(lengths.max())):
        rows = np.minimum(starts + o, n - 1)
        weights = np.where(o < lengths, mat[np.arange(POOL_GRID), rows], 0.0)[:, None]
        if n % POOL_GRID == 0:
            rows = slice(o, n, n // POOL_GRID)
        steps.append((rows, weights))
    return tuple(steps)


def column_pool(images: np.ndarray) -> np.ndarray:
    """`SyntheticEncoder._pool` multiplying every step by its weight column:
    the oracle for the scalar-weight steps."""
    *lead, height, width = images.shape
    acc = np.zeros((*lead, POOL_GRID, width))
    for rows, weights in column_row_windows(height):
        acc += images[..., rows, :] * weights
    return np.matmul(acc, providers._column_pool(width))


class TestSyntheticEncoder:
    def test_deterministic_and_unit_norm(self):
        rng = np.random.default_rng(0)
        image = random_image(rng, height=32, width=32)
        enc_a = SyntheticEncoder(16, seed=7)
        enc_b = SyntheticEncoder(16, seed=7)
        za, zb = enc_a.encode(image), enc_b.encode(image)
        np.testing.assert_array_equal(za, zb)
        np.testing.assert_allclose(np.linalg.norm(za), 1.0, rtol=1e-12)

    def test_seed_changes_embedding(self):
        rng = np.random.default_rng(1)
        image = random_image(rng, height=32, width=32)
        assert not np.array_equal(
            SyntheticEncoder(16, seed=7).encode(image),
            SyntheticEncoder(16, seed=8).encode(image),
        )

    def test_projection_is_lipschitz_in_pixels(self):
        # the pre-normalization map is linear: pooling is an average
        # (non-expansive per channel in infinity norm) followed by a fixed
        # projection, so |project(a) - project(b)| <= L * |a - b|_2 with
        # L the projection's operator norm
        enc = SyntheticEncoder(24, seed=3)
        rng = np.random.default_rng(2)
        a = random_image(rng, height=20, width=20)
        b = random_image(rng, height=20, width=20)
        lip = np.linalg.norm(enc.projection_matrix(3), ord=2)
        lhs = np.linalg.norm(enc.project(a) - enc.project(b))
        assert lhs <= lip * np.linalg.norm((a - b).reshape(-1)) + 1e-12

    def test_pooling_preserves_constants(self):
        enc = SyntheticEncoder(8, seed=1)
        flat = enc._pool(np.full((3, 33, 47), 0.25))
        np.testing.assert_allclose(flat, 0.25, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.sampled_from([(64, 64), (40, 40), (20, 24), (33, 17), (7, 5), (37, 21)]),
        lead=st.sampled_from([(3,), (1, 3), (16, 3), (5, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pool_equals_the_weight_column_oracle(self, size, lead, seed):
        # signed pixels: a zero weight then adds -0.0 as well as +0.0
        images = np.random.default_rng(seed).uniform(-1.0, 1.0, (*lead, *size))
        got = SyntheticEncoder(8, seed=1)._pool(images)
        np.testing.assert_array_equal(got.view(np.uint64), column_pool(images).view(np.uint64))

    def test_equal_weights_are_one_float(self):
        # 16 divides 64: four strided steps, each at the one weight 1/4
        steps = providers._row_windows(64)
        assert list(steps) == [(slice(o, 64, 4), 0.25) for o in range(4)]
        assert all(type(weights) is float for _, weights in steps)
        # 40 rows: every window is 3 rows long, so each step's weight is
        # one float over an index array
        steps = providers._row_windows(40)
        assert [weights for _, weights in steps] == [1 / 3] * 3
        assert all(isinstance(rows, np.ndarray) for rows, _ in steps)

    @pytest.mark.parametrize("n", [5, 7, 37])
    def test_mixed_and_zero_padded_steps_stay_columns(self, n):
        # windows of unequal length: weights differ within a step, and a
        # short window's last steps add a row at weight 0
        steps = providers._row_windows(n)
        assert all(weights.shape == (POOL_GRID, 1) and not weights.flags.writeable
                   for _, weights in steps)
        assert len(np.unique(steps[0][1])) > 1
        assert np.any(steps[-1][1] == 0.0)
        for (rows, weights), (want_rows, want_weights) in zip(steps, column_row_windows(n)):
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(weights, want_weights)

    def test_small_images_poolable(self):
        # images below the pool grid still encode
        enc = SyntheticEncoder(8, seed=1)
        z = enc.encode(np.random.default_rng(3).random((3, 2, 2)))
        np.testing.assert_allclose(np.linalg.norm(z), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.bool_])
    def test_rejects_integer_images(self, dtype):
        # 8-bit levels are not [0, 1] intensities; project and encode refuse them
        enc = SyntheticEncoder(8, seed=0)
        for call in (enc.project, enc.encode):
            with pytest.raises(ValueError, match=f"got dtype {np.dtype(dtype)}"):
                call(np.ones((2, 3, 16, 16), dtype=dtype))

    def test_rejects_bad_shapes(self):
        enc = SyntheticEncoder(8, seed=0)
        with pytest.raises(ValueError):
            enc.encode(np.zeros((4, 4)))
        with pytest.raises(ValueError, match=r"\(B, C, H, W\) stack"):
            enc.encode(np.zeros((1, 2, 3, 4, 4)))
        with pytest.raises(ValueError):
            SyntheticEncoder(1, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 40),
        channels=st.integers(1, 3),
        height=st.sampled_from([2, 5, 16, 17, 37, 40, 64, 100]),
        width=st.sampled_from([2, 5, 16, 17, 37, 40, 64, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_rows_equal_the_einsum_oracle(self, batch, channels, height, width, seed):
        # signed pixels: out-of-window rows then add -0.0 as well as +0.0
        images = np.random.default_rng(seed).uniform(-1.0, 1.0, (batch, channels, height, width))
        enc = SyntheticEncoder(16, seed=5)
        rows = enc.encode(images)
        assert rows.shape == (batch, 16)
        for image, row in zip(images, rows):
            np.testing.assert_array_equal(row, einsum_encode(enc, image))
        np.testing.assert_array_equal(enc.encode(images[0]), rows[0])
        np.testing.assert_array_equal(enc.project(images)[-1], enc.project(images[-1]))

    def test_one_pixel_wide_images_round_like_a_dot_product(self):
        # at width 1 the einsum oracle reduces the height with a BLAS dot
        # product, whose order differs from the windowed sum; the pipeline
        # never encodes such images (image_size >= 2, views keep the shape)
        enc = SyntheticEncoder(16, seed=5)
        images = np.random.default_rng(4).random((3, 3, 64, 1))
        for image, row in zip(images, enc.encode(images)):
            np.testing.assert_allclose(row, einsum_encode(enc, image), rtol=0, atol=1e-15)

    def test_empty_stack(self):
        assert SyntheticEncoder(8, seed=0).encode(np.zeros((0, 3, 16, 16))).shape == (0, 8)


def save_embedding_bank_per_sample(path, bank):
    """The per-sample writer the one-buffer saver replaced, kept as its
    oracle."""
    header = {
        "tag": bank.tag,
        "sample_count": bank.sample_count,
        "views": bank.views,
        "dim_feature": bank.dim_feature,
        "dim_neural": bank.dim_neural,
        "kernel_levels": [int(l) for l in bank.kernel_levels],
        "labels": [int(l) for l in bank.labels],
        "splits": list(bank.splits),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BANK_MAGIC)
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for i in range(bank.sample_count):
            for level in bank.kernel_levels:
                fh.write(np.ascontiguousarray(level_block(bank, level)[i], dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(bank.neural[i], dtype="<f4").tobytes())


@st.composite
def banks(draw):
    """Small valid banks, features float32 or float64, values spread over
    float32's exponent range."""
    n, views, dim_f, dim_n = (draw(st.integers(1, 5)) for _ in range(4))
    levels = sorted(draw(st.sets(st.sampled_from([1, 3, 5, 9, 15, 75]), min_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-40, 38, shape)

    test_from = draw(st.integers(0, n))
    return EmbeddingBank(
        tag=draw(st.text(max_size=5)),
        sample_count=n,
        views=views,
        dim_feature=dim_f,
        dim_neural=dim_n,
        kernel_levels=tuple(levels),
        labels=tuple(range(n)),
        splits=tuple("train" if i < test_from else "test" for i in range(n)),
        features=values((n, len(levels), views, dim_f)).astype(
            draw(st.sampled_from([np.float32, np.float64]))
        ),
        neural=values((n, dim_n)),
    )


MALFORMED_BANK_HEADERS = {
    "non-numeric-sample-count": {"sample_count": "six"},
    "null-kernel-levels": {"kernel_levels": None},
    "negative-views": {"views": -3},
    "fractional-dim-feature": {"dim_feature": 5.5},
    "boolean-dim-neural": {"dim_neural": True},
    "string-labels": {"labels": ["a"] * 6},
    "labels-beyond-int64": {"labels": [2**70] * 6},
    "null-splits": {"splits": None},
    "numeric-splits": {"splits": [0] * 6},
    "no-samples": {"sample_count": 0},
    "no-samples-huge-views": {"sample_count": 0, "views": 2**63},
    "no-kernel-levels": {"kernel_levels": []},
    # the payload size still matches: 6 samples of 34 floats
    "no-kernel-levels-huge-views": {"kernel_levels": [], "dim_neural": 34, "views": 2**63},
    "numeric-tag": {"tag": 7},
    "missing-labels": {"labels": ABSENT},
    "extra-key": {"kernel": 75},
    "val-split": {"splits": ["train"] * 4 + ["test", "val"]},
}


class TestEmbeddingBank:
    def test_round_trip_bit_identical(self, tmp_path):
        bank = tiny_bank()
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, bank)
        loaded = load_embedding_bank(path)
        for entry in fields(BankHeader):
            want = getattr(bank, entry.name)
            got = getattr(loaded, entry.name)
            assert (type(got), got) == (type(want), want), entry.name
        np.testing.assert_array_equal(loaded.neural, bank.neural)
        for level in bank.kernel_levels:
            np.testing.assert_array_equal(
                level_block(loaded, level), level_block(bank, level)
            )

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bank=banks())
    def test_bytes_equal_the_per_sample_writer(self, tmp_path, bank):
        save_embedding_bank(tmp_path / "new.bicp", bank)
        save_embedding_bank_per_sample(tmp_path / "old.bicp", bank)
        assert (tmp_path / "new.bicp").read_bytes() == (tmp_path / "old.bicp").read_bytes()

    def test_bytes_equal_the_per_sample_writer_across_blocks(self, tmp_path):
        # the payload is written BLOCK samples at a time: two full blocks and a short one
        bank = tiny_bank(n=2 * BLOCK + 3, test_from=2 * BLOCK)
        save_embedding_bank(tmp_path / "new.bicp", bank)
        save_embedding_bank_per_sample(tmp_path / "old.bicp", bank)
        assert (tmp_path / "new.bicp").read_bytes() == (tmp_path / "old.bicp").read_bytes()

    def test_loaded_features_view_the_payload(self, tmp_path):
        bank = tiny_bank(levels=(1, 5, 9))
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, bank)
        loaded = load_embedding_bank(path)
        assert loaded.features.shape == (6, 3, 3, 5)
        assert loaded.features.dtype == np.float32
        assert not loaded.features.flags.owndata

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bicp", tmp_path / "b.bicp"
        save_embedding_bank(a, tiny_bank())
        save_embedding_bank(b, tiny_bank())
        assert a.read_bytes() == b.read_bytes()

    def test_magic_and_version(self, tmp_path):
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, tiny_bank())
        head = path.read_bytes()[:8]
        assert head[:4] == BANK_MAGIC
        assert struct.unpack("<I", head[4:])[0] == 1

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, tiny_bank())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_embedding_bank(path)

    @pytest.mark.parametrize(
        "changes", MALFORMED_BANK_HEADERS.values(), ids=MALFORMED_BANK_HEADERS.keys()
    )
    def test_malformed_header_rejected(self, tmp_path, changes):
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, tiny_bank())
        rewrite_bank_header(path, **changes)
        with pytest.raises(FormatError, match="bank header"):
            load_embedding_bank(path)

    @pytest.mark.parametrize("changes, message", [
        ({"tag": 7}, "tag: expected str, got 7"),
        ({"labels": ABSENT}, "labels: missing"),
        ({"kernel": 75}, "kernel: unknown key"),
        ({"views": 0}, "views must be >= 1, got 0"),
        ({"kernel_levels": []}, "kernel_levels must be non-empty"),
        ({"kernel_levels": [1, 4]}, "kernel_levels[1] must be odd >= 1, got 4"),
        ({"splits": ["train"] * 4 + ["test", "val"]}, "splits[5] must be 'train' or 'test', got val"),
    ])
    def test_header_error_names_the_file_and_the_entry(self, tmp_path, changes, message):
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, tiny_bank())
        rewrite_bank_header(path, **changes)
        with pytest.raises(FormatError) as exc:
            load_embedding_bank(path)
        assert str(exc.value) == f"{path}: bank header.{message}"

    @pytest.mark.parametrize("changes, error, message", [
        ({"labels": [0, 1, 2, 3, 4]}, FormatError,
         "labels/splits length does not match the sample count"),
        ({"labels": [0, 1, 2, 3, 3, 5]}, ProtocolError,
         "train/test class sets overlap (zero-shot protocol): [3]"),
    ])
    def test_field_comparison_error_names_the_file(self, tmp_path, changes, error, message):
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, tiny_bank())
        rewrite_bank_header(path, **changes)
        with pytest.raises(error) as exc:
            load_embedding_bank(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_signalling_nan_in_the_neural_block_rejected_without_a_warning(self, tmp_path):
        # widening a float32 signalling NaN warns "invalid value in cast",
        # an error under the test settings, so the check comes first; the
        # last four payload bytes are the last sample's last neural entry
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, tiny_bank())
        path.write_bytes(path.read_bytes()[:-4] + b"\x00\x00\x81\x7f")
        with pytest.raises(FormatError, match="neural block contains non-finite values"):
            load_embedding_bank(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bank.bicp"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_embedding_bank(path)

    @pytest.mark.parametrize("labels, message", [
        (np.arange(6), "bank header.labels: expected a list of int, got array("),
        (tuple(np.arange(6)), f"bank header.labels[0]: expected int, got {np.int64(0)!r}"),
    ])
    def test_labels_built_in_code_are_type_checked(self, tmp_path, labels, message):
        bank = tiny_bank()
        bank.labels = labels
        path = tmp_path / "bank.bicp"
        with pytest.raises(FormatError) as exc:
            save_embedding_bank(path, bank)
        assert str(exc.value).startswith(message)
        assert not path.exists()

    def test_class_overlap_violates_protocol(self):
        bank = tiny_bank()
        bank.labels = (0, 1, 2, 3, 3, 5)  # class 3 in both splits
        with pytest.raises(ProtocolError):
            bank.validate()

    def test_even_level_rejected(self):
        bank = tiny_bank(levels=(2, 9))
        with pytest.raises(FormatError):
            bank.validate()

    def test_unsorted_levels_rejected(self):
        bank = tiny_bank()
        bank.kernel_levels = (9, 1)
        with pytest.raises(FormatError):
            bank.validate()

    def test_non_finite_rejected(self):
        bank = tiny_bank()
        bank.neural[0, 0] = np.nan
        with pytest.raises(FormatError):
            bank.validate()

    def test_non_finite_feature_rejected(self):
        bank = tiny_bank()
        bank.features[5, 1, 2, 4] = np.inf
        with pytest.raises(FormatError, match="features contain non-finite values"):
            bank.validate()

    @pytest.mark.parametrize("count", [5, 7])
    def test_sample_count_checked_against_every_array(self, count):
        bank = tiny_bank()
        bank.sample_count = count
        with pytest.raises(FormatError, match=r"features have shape \(6, 2, 3, 5\), expected"):
            bank.validate()
        bank.features = np.resize(bank.features, (count, *bank.features.shape[1:]))
        with pytest.raises(FormatError, match=r"neural block has shape \(6, 4\), expected"):
            bank.validate()
        bank.neural = np.resize(bank.neural, (count, bank.dim_neural))
        with pytest.raises(FormatError, match="labels/splits length does not match the sample count"):
            bank.validate()

    def test_features_missing_a_level_rejected(self):
        bank = tiny_bank(levels=(1, 5, 9))
        bank.features = bank.features[:, :2]
        with pytest.raises(FormatError, match="features have shape"):
            bank.validate()

    def test_bad_split_tag_rejected(self):
        bank = tiny_bank()
        bank.splits = ("train", "validation") + bank.splits[2:]
        with pytest.raises(FormatError):
            bank.validate()

    def test_indices_partition_samples(self):
        bank = tiny_bank()
        train, test = bank.indices("train"), bank.indices("test")
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(6))

    @settings(max_examples=200, deadline=None)
    @given(
        splits=st.lists(st.sampled_from(["train", "test", "val", "", "trains"]), max_size=40),
        split=st.sampled_from(["train", "test", "val", "", "tes"]),
    )
    def test_indices_match_the_list_comprehension(self, splits, split):
        # the Python loop the vectorised lookup replaced, kept as its oracle
        want = np.array([i for i, s in enumerate(splits) if s == split], dtype=np.int64)
        bank = tiny_bank()
        bank.splits = splits
        got = bank.indices(split)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def whole_payload_read(path) -> tuple[np.ndarray, np.ndarray]:
    """(features, neural) as a reader of the whole payload at once builds
    them: views of one (samples, row) float32 array, neural widened."""
    data = path.read_bytes()
    (length,) = struct.unpack("<I", data[8:12])
    h = json.loads(data[12 : 12 + length])
    shape = (len(h["kernel_levels"]), h["views"], h["dim_feature"])
    flat = np.frombuffer(data[12 + length :], dtype="<f4").reshape(h["sample_count"], -1)
    width = int(np.prod(shape))
    return flat[:, :width].reshape(-1, *shape), flat[:, width:].astype(np.float64)


# 7 samples of 2 * 3 * 5 features and 4 neural values, 136 bytes a row; a
# read budget of three rows reads them as chunks of 3, 3 and 1 samples
CHUNK_ROW, CHUNK_SAMPLES, CHUNK_WIDTH = 136, 7, 30
NON_FINITE_WORDS = {
    "quiet-nan": b"\x00\x00\xc0\x7f", "signalling-nan": b"\x00\x00\x81\x7f", "inf": b"\x00\x00\x80\x7f",
}
LOAD_MODES = pytest.mark.parametrize("features", [True, False], ids=["features", "neural-only"])


class TestChunkedLoad:
    @pytest.fixture
    def chunked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(providers, "READ_BYTES", 3 * CHUNK_ROW + CHUNK_ROW // 2)
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, tiny_bank(n=CHUNK_SAMPLES))
        assert path.stat().st_size - 12 - struct.unpack("<I", path.read_bytes()[8:12])[0] == (
            CHUNK_SAMPLES * CHUNK_ROW)
        return path

    @LOAD_MODES
    def test_loads_as_the_whole_payload_read(self, chunked, features):
        want_features, want_neural = whole_payload_read(chunked)
        bank = load_embedding_bank(chunked, features=features)
        assert bank.neural.dtype == np.float64
        np.testing.assert_array_equal(bank.neural, want_neural)
        if features:
            assert bank.features.dtype == np.float32 and not bank.features.flags.owndata
            np.testing.assert_array_equal(bank.features, want_features)
        else:
            assert bank.features is None

    @LOAD_MODES
    @pytest.mark.parametrize("word", NON_FINITE_WORDS.values(), ids=NON_FINITE_WORDS.keys())
    @pytest.mark.parametrize("sample", [0, 4, 6], ids=["first-chunk", "middle-chunk", "last-chunk"])
    @pytest.mark.parametrize("faults, message", [
        (("features",), "features contain non-finite values"),
        (("neural",), "neural block contains non-finite values"),
        # a feature fault wins over a neural one, even in an earlier chunk
        (("features", "neural"), "features contain non-finite values"),
    ], ids=["features", "neural", "both"])
    def test_non_finite_word_in_any_chunk_rejected_without_a_warning(
        self, chunked, features, word, sample, faults, message
    ):
        data = bytearray(chunked.read_bytes())
        start = len(data) - CHUNK_SAMPLES * CHUNK_ROW
        for fault in faults:
            # feature column `sample` of `sample`; its second neural value, or
            # sample 0's when both are broken
            at = (start + sample * CHUNK_ROW + 4 * sample if fault == "features" else
                  start + (0 if len(faults) > 1 else sample) * CHUNK_ROW + 4 * CHUNK_WIDTH + 4)
            data[at : at + 4] = word
        chunked.write_bytes(bytes(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError) as exc:
                load_embedding_bank(chunked, features=features)
        assert str(exc.value) == f"{chunked}: {message}"

    @LOAD_MODES
    @pytest.mark.parametrize("changes, message", [
        ({"kernel_levels": [9, 1]}, "kernel levels must be non-empty, sorted and unique, got [9, 1]"),
        ({"labels": [0, 1, 2, 3, 3, 5, 6]}, "features contain non-finite values"),
    ], ids=["unsorted-levels-first", "class-overlap-after"])
    def test_header_faults_keep_their_place_around_a_non_finite_feature(
        self, chunked, features, changes, message
    ):
        data = bytearray(chunked.read_bytes())
        last_feature = len(data) - 4 * (4 + 1)  # the last sample's, before its 4 neural values
        data[last_feature : last_feature + 4] = NON_FINITE_WORDS["inf"]
        chunked.write_bytes(bytes(data))
        rewrite_bank_header(chunked, **changes)
        with pytest.raises(FormatError) as exc:
            load_embedding_bank(chunked, features=features)
        assert str(exc.value) == f"{chunked}: {message}"

    @LOAD_MODES
    def test_a_file_that_shrinks_while_it_is_read_is_refused(self, chunked, monkeypatch, features):
        # the size is taken before the payload is read: a file cut short
        # after that leaves a chunk unfilled, which must not be kept
        size = chunked.stat().st_size
        chunked.write_bytes(chunked.read_bytes()[:-8])
        stale = lambda fd: os.stat_result((*os.fstat(fd)[:6], size, *os.fstat(fd)[7:]))
        monkeypatch.setattr(container, "os", SimpleNamespace(fstat=stale))
        with pytest.raises(FormatError) as exc:
            load_embedding_bank(chunked, features=features)
        assert str(exc.value) == f"{chunked}: the file ended while its payload was read"

    def test_a_bank_loaded_without_features_is_refused(self, chunked, tmp_path):
        bank = load_embedding_bank(chunked, features=False)
        for call in (bank.validate, lambda: BankProvider(bank),
                     lambda: save_embedding_bank(tmp_path / "copy.bicp", bank)):
            with pytest.raises(ValueError, match="loaded without its features") as exc:
                call()
            assert exc.type is ValueError
        assert not (tmp_path / "copy.bicp").exists()


def select_kernel_level_loop(levels, kernel: int) -> int:
    """The scalar selector the vectorised one replaced, kept as its oracle."""
    best = None
    for level in levels:
        distance = abs(int(kernel) - int(level))
        if best is None or distance < best[0] or (distance == best[0] and level > best[1]):
            best = (distance, int(level))
    return best[1]


def levels_read(levels, kernels) -> np.ndarray:
    """The level `BankProvider.features` reads for each kernel, from a
    one-sample bank whose every stored feature is its own level."""
    bank = tiny_bank(levels=levels, n=1, views=1, dim_f=1)
    bank.features = np.asarray(levels, dtype=np.float32).reshape(1, len(levels), 1, 1)
    rows = BankProvider(bank.validate()).features(np.zeros(len(kernels), dtype=np.int64), kernels)
    return rows[:, 0, 0].astype(np.int64)


class TestKernelLevelSelection:
    def test_exact_hit(self):
        assert levels_read([1, 75, 149], [75]).tolist() == [75]

    def test_nearest_wins(self):
        picks = levels_read([1, 75, 149], [30, 45, 120])
        np.testing.assert_array_equal(picks, [1, 75, 149])

    def test_midpoint_tie_resolves_upward(self):
        assert levels_read([51, 75], [63]).tolist() == [75]
        assert levels_read([1, 5], [3]).tolist() == [5]

    def test_monotone_in_kernel(self):
        picks = levels_read([1, 25, 75, 149], np.arange(1, 150, 2))
        assert np.all(np.diff(picks) >= 0)

    @settings(max_examples=300, deadline=None)
    @given(
        levels=st.lists(st.integers(0, 80).map(lambda n: 2 * n + 1), min_size=1, max_size=6,
                        unique=True).map(sorted),
        kernels=st.lists(st.integers(-5, 170), min_size=1, max_size=20),
    )
    def test_matches_the_scalar_loop(self, levels, kernels):
        picks = levels_read(levels, kernels)
        assert picks.shape == (len(kernels),)
        assert picks.tolist() == [select_kernel_level_loop(levels, k) for k in kernels]


ALL_VIEWS = ("identity", "foveated", "noise", "lowres", "mosaic")
BATCH_IMAGES = [random_levels(np.random.default_rng(20 + i), height=16, width=16) for i in range(4)]
# a run of requests against one provider: (ids, kernels, epoch) per batch
REQUESTS = st.lists(
    st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, len(BATCH_IMAGES) - 1), min_size=n, max_size=n),
        st.lists(st.sampled_from([1, 3, 5]), min_size=n, max_size=n),
        st.integers(0, 1),
    )),
    min_size=1, max_size=4,
)


class TestSyntheticProvider:
    def _provider(self, images=(), **views):
        base = dict(foveated=True, noise=True, lowres=True, mosaic=True)
        base.update(views)
        return SyntheticProvider(
            TransformConfig(kernel_size=9), ViewsConfig(**base), dim=8, seed=3,
            images=list(images),
        )

    def test_view_rows_match_manual_encoding(self):
        rng = np.random.default_rng(5)
        image = random_levels(rng, height=32, width=32)
        provider = self._provider([image])
        rows = provider.features([0], [9], noise_base=4, epoch=2)
        assert rows.shape == (1, 4, 8)
        noise_seed = derive_noise_seed(4, 0, 2)
        for i, name in enumerate(provider.view_names):
            view = provider.view_image(name, image / 255.0, 9, noise_seed)
            np.testing.assert_array_equal(rows[0, i], provider.encoder.encode(view))

    @settings(max_examples=60, deadline=None)
    @given(
        enabled=st.lists(st.sampled_from(ALL_VIEWS), min_size=1, unique=True),
        requests=REQUESTS,
    )
    def test_batched_rows_equal_per_sample_rows(self, enabled, requests):
        # batches of one, repeated ids, and requests that hit, miss or
        # replace cached rows all give each sample's own encoding bit for bit
        provider = self._provider(
            BATCH_IMAGES, **{name: name in enabled for name in ALL_VIEWS}
        )
        encode, view_image = provider.encoder.encode, provider.view_image
        for ids, kernels, epoch in requests:
            rows = provider.features(ids, kernels, 6, epoch)
            assert rows.shape == (len(ids), len(provider.view_names), 8)
            for j, (i, k) in enumerate(zip(ids, kernels)):
                seed = derive_noise_seed(6, i, epoch)
                image = BATCH_IMAGES[i] / 255.0
                want = [encode(view_image(n, image, k, seed)) for n in provider.view_names]
                np.testing.assert_array_equal(rows[j], np.stack(want))

    def test_cached_rows_match_fresh_rows(self, monkeypatch):
        # repeated requests reuse cached rows; only the foveated row follows
        # the kernel and only the noise row follows the epoch. A row is
        # re-rendered only when its kernel or seed differs from the last one.
        image = random_levels(np.random.default_rng(9), height=32, width=32)
        provider = self._provider([image])
        base = provider.features([0], [3], 5, 0)[0]
        rendered = []
        view_image = provider.view_image
        monkeypatch.setattr(
            provider, "view_image", lambda name, *a: rendered.append(name) or view_image(name, *a)
        )
        cases = [
            (3, 0, False, False), (9, 0, True, False), (3, 1, True, True), (9, 1, True, False),
            (9, 1, False, False), (3, 0, True, True), (9, 1, True, True), (9, 1, False, False),
        ]
        for kernel, epoch, foveated_rendered, noise_rendered in cases:
            rendered.clear()
            rows = provider.features([0], [kernel], 5, epoch)[0]
            assert ("foveated" in rendered) == foveated_rendered, (kernel, epoch)
            assert ("noise" in rendered) == noise_rendered, (kernel, epoch)
            assert set(rendered) <= {"foveated", "noise"}
            seed = derive_noise_seed(5, 0, epoch)
            for name, row, base_row in zip(provider.view_names, rows, base):
                fresh = provider.encoder.encode(view_image(name, image / 255.0, kernel, seed))
                np.testing.assert_array_equal(row, fresh)
                moved = (name == "foveated" and kernel != 3) or (name == "noise" and epoch != 0)
                assert np.array_equal(row, base_row) != moved, (name, kernel, epoch)

    def test_cache_holds_one_row_per_index_and_view(self):
        rng = np.random.default_rng(11)
        images = [random_levels(rng, height=16, width=16) for _ in range(2)]
        provider = self._provider(images, identity=True)
        for epoch in range(4):
            for kernel in (1, 3, 5, 7, 9):
                provider.features([0, 0, 1], [kernel, kernel + 2, kernel], 2, epoch)
        assert sorted(provider._rows) == sorted(
            (index, name) for index in (0, 1) for name in provider.view_names
        )
        # each entry is the last request's row
        last = provider.features([0, 1], [11, 9], 2, 3)
        np.testing.assert_array_equal(
            np.stack([[provider._rows[(i, n)][1] for n in provider.view_names] for i in (0, 1)]),
            last,
        )

    def test_noise_seed_is_derived_only_on_a_miss(self, monkeypatch):
        # the noise row's key is (noise_base, epoch); its seed is derived
        # only when the row is rendered
        derived = []
        derive = providers.derive_noise_seed
        monkeypatch.setattr(providers, "derive_noise_seed", lambda *a: derived.append(a) or derive(*a))
        rng = np.random.default_rng(12)
        images = [random_levels(rng, height=16, width=16) for _ in range(3)]
        provider = self._provider(images, identity=True)
        ids = [0, 1, 2]
        provider.features(ids, [3, 5, 7], 5, 0)
        assert derived == [(5, i, 0) for i in ids]
        for kernels in ([3, 5, 7], [9, 9, 9], [1, 3, 5]):  # repeated (noise_base, epoch)
            derived.clear()
            provider.features(ids, kernels, 5, 0)
            assert derived == []
        for noise_base, epoch in ((5, 1), (6, 1)):  # a new epoch or base: one per sample
            derived.clear()
            rows = provider.features(ids, [5, 5, 5], noise_base, epoch)
            assert derived == [(noise_base, i, epoch) for i in ids]
        for j, i in enumerate(ids):
            seed = derive(6, i, 1)
            want = [provider.encoder.encode(provider.view_image(n, images[i] / 255.0, 5, seed))
                    for n in provider.view_names]
            np.testing.assert_array_equal(rows[j], np.stack(want))
        assert sorted(provider._rows) == sorted((i, n) for i in ids for n in provider.view_names)
        assert provider._rows[(0, "noise")][0] == (6, 1)

    def test_misses_beyond_one_block_equal_per_sample_rows(self, monkeypatch):
        # 40 samples, 13 warmed: hits, replaced foveated rows and more than
        # BLOCK misses per view, at a size 16 does not divide (index-array
        # pool). Every view of a uint8 image is that of its widening, which
        # leaves the levels as they were
        rng = np.random.default_rng(13)
        images = [random_levels(rng, height=20, width=24) for _ in range(40)]
        levels = [image.copy() for image in images]
        provider = self._provider(images, identity=True)
        warm = list(range(0, 40, 3))
        provider.features(warm, [5] * len(warm), 2, 0)
        blocks = []
        encode = provider.encoder.encode
        monkeypatch.setattr(provider.encoder, "encode", lambda x: blocks.append(x.shape) or encode(x))
        ids = list(range(40))
        kernels = [5 if i % 2 else 7 for i in ids]
        rows = provider.features(ids, kernels, 2, 0)
        for j, (i, k) in enumerate(zip(ids, kernels)):
            seed = derive_noise_seed(2, i, 0)
            image = images[i] / 255.0  # the widening the provider makes of the levels
            want = [encode(provider.view_image(n, image, k, seed)) for n in provider.view_names]
            np.testing.assert_array_equal(rows[j], np.stack(want))
        hits = {"foveated": sum(k == 5 for i, k in zip(ids, kernels) if i in warm)}
        for name in ("identity", "noise", "lowres", "mosaic"):
            hits[name] = len(warm)
        misses = sum(40 - h for h in hits.values())
        assert sum(shape[0] for shape in blocks) == misses
        # every view's misses share the blocks: one encode call per BLOCK misses
        assert len(blocks) == -(-misses // BLOCK)
        assert max(shape[0] for shape in blocks) == BLOCK
        assert {shape[1:] for shape in blocks} == {(3, 20, 24)}
        assert all(np.array_equal(a, b) and a.dtype == np.uint8 for a, b in zip(images, levels))

    def test_each_sample_is_widened_once_per_call(self):
        # 5 samples, each missing all 5 views: 5 widenings, not 25
        divides = []

        class Levels(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                divides.append(ufunc is np.divide)
                inputs = [np.asarray(x) for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        rng = np.random.default_rng(15)
        levels = [random_levels(rng, height=16, width=16) for _ in range(5)]
        provider = self._provider([a.view(Levels) for a in levels], identity=True)
        rows = provider.features(range(5), [5] * 5, 2, 0)
        assert sum(divides) == 5 and len(provider._rows) == 25
        plain = self._provider(levels, identity=True)
        np.testing.assert_array_equal(rows, plain.features(range(5), [5] * 5, 2, 0))

    def test_images_of_two_shapes_rejected(self, monkeypatch):
        rng = np.random.default_rng(14)
        images = [random_levels(rng, height=20, width=20 if i % 2 else 24) for i in range(4)]
        provider = self._provider(images, identity=True)
        rendered = []
        monkeypatch.setattr(provider, "view_image", lambda *a: rendered.append(a[0]))
        with pytest.raises(ValueError, match=r"one shape, got shapes \[\(3, 20, 20\), \(3, 20, 24\)\]"):
            provider.features([0, 2, 1], [5, 5, 5])
        assert rendered == [] and provider._rows == {}

    def test_image_without_channels_rejected(self):
        # identity returns the image as it is: a (H, W) image must not
        # reach the encoder, which would read a block of them as one image
        provider = SyntheticProvider(
            TransformConfig(), ViewsConfig(
                foveated=False, noise=False, lowres=False, mosaic=False, identity=True
            ), dim=8, seed=3, images=[np.zeros((16, 16), np.uint8), np.ones((16, 16), np.uint8)],
        )
        with pytest.raises(ValueError, match=r"expected \(C, H, W\) images .* \[\(16, 16\)\]"):
            provider.features([0, 1], [5, 5])
        assert provider._rows == {}

    def test_float_images_rejected(self, monkeypatch):
        # a float image in [0, 1] would be divided by 255 a second time
        rng = np.random.default_rng(15)
        images = [random_levels(rng, height=16, width=16), random_image(rng, height=16, width=16)]
        provider = self._provider(images)
        rendered = []
        monkeypatch.setattr(provider, "view_image", lambda *a: rendered.append(a[0]))
        with pytest.raises(ValueError, match=r"dtype uint8, got dtypes \['float64', 'uint8'\]"):
            provider.features([0, 1], [5, 5])
        with pytest.raises(ValueError, match=r"dtypes \['float64'\]"):
            provider.features([1], [5])
        assert rendered == [] and provider._rows == {}
        assert provider.features([0], [5]).shape == (1, 4, 8)

    def test_batch_stacks_samples(self):
        rng = np.random.default_rng(10)
        images = [random_levels(rng, height=16, width=16) for _ in range(3)]
        provider = self._provider(images)
        feats = provider.features([2, 0], [3, 9], noise_base=1, epoch=4)
        assert feats.shape == (2, 4, 8)
        np.testing.assert_array_equal(feats[0], provider.features([2], [3], 1, 4)[0])
        np.testing.assert_array_equal(feats[1], provider.features([0], [9], 1, 4)[0])

    def test_empty_batch(self):
        provider = self._provider([random_levels(np.random.default_rng(0))])
        assert provider.features([], []).shape == (0, 4, 8)

    def test_disabled_views_drop_rows(self):
        provider = self._provider(noise=False)
        assert provider.view_names == ["foveated", "lowres", "mosaic"]
        assert provider.features([], []).shape == (0, 3, 8)

    def test_identity_view_is_plain_encoding(self):
        rng = np.random.default_rng(6)
        image = random_levels(rng, height=16, width=16)
        provider = SyntheticProvider(
            TransformConfig(), ViewsConfig(
                foveated=False, noise=False, lowres=False, mosaic=False, identity=True
            ), dim=8, seed=3, images=[image],
        )
        rows = provider.features([0], [75])
        np.testing.assert_array_equal(rows[0, 0], provider.encoder.encode(image / 255.0))

    def test_foveated_row_depends_on_kernel(self):
        rng = np.random.default_rng(7)
        image = random_image(rng, height=32, width=32)
        provider = self._provider()
        a = provider.encoder.encode(provider.view_image("foveated", image, 3, 0))
        b = provider.encoder.encode(provider.view_image("foveated", image, 31, 0))
        assert not np.array_equal(a, b)

    def test_heavier_blur_drifts_further_from_clean(self):
        rng = np.random.default_rng(8)
        image = random_image(rng, height=32, width=32)
        provider = self._provider()
        clean = provider.encoder.encode(image)
        light = provider.encoder.encode(provider.view_image("foveated", image, 3, 0))
        heavy = provider.encoder.encode(provider.view_image("foveated", image, 63, 0))
        assert np.linalg.norm(heavy - clean) >= np.linalg.norm(light - clean)

    def test_missing_image_rejected(self):
        provider = self._provider([random_levels(np.random.default_rng(0))])
        for index in (1, -1):
            with pytest.raises(ValueError, match="has no image"):
                provider.features([0, index], [9, 9])
        assert provider._rows == {}

    def test_unread_image_rejected(self):
        image = random_levels(np.random.default_rng(0), height=32, width=32)
        provider = self._provider([image, None])
        with pytest.raises(ValueError, match="sample index 1 has no image"):
            provider.features([0, 1], [9, 9])
        assert provider._rows == {}
        assert provider.features([0], [9]).shape == (1, 4, 8)

    def test_kernel_count_must_match_ids(self):
        provider = self._provider([random_levels(np.random.default_rng(0))])
        with pytest.raises(ValueError, match="1 sample ids but 2 kernels"):
            provider.features([0], [9, 9])

    def test_unknown_view_rejected(self):
        with pytest.raises(ValueError, match="unknown view 'blurred'"):
            self._provider().view_image("blurred", np.zeros((1, 4, 4)), 9, 0)

    def test_all_views_disabled_rejected(self):
        with pytest.raises(ValueError):
            SyntheticProvider(
                TransformConfig(),
                ViewsConfig(foveated=False, noise=False, lowres=False, mosaic=False),
                dim=8, seed=0, images=[],
            )


class TestBankProvider:
    def test_replays_stored_rows(self):
        bank = tiny_bank()
        provider = BankProvider(bank)
        rows = provider.features([2], [9])
        np.testing.assert_array_equal(rows[0], level_block(bank, 9)[2].astype(np.float64))

    def test_nearest_level_selected(self):
        bank = tiny_bank(levels=(1, 9))
        provider = BankProvider(bank)
        rows = provider.features([0], [3])
        np.testing.assert_array_equal(rows[0], level_block(bank, 1)[0].astype(np.float64))

    def test_batch_reads_each_sample_at_its_level(self):
        bank = tiny_bank(levels=(3, 9, 17))
        provider = BankProvider(bank)
        ids = [5, 0, 2, 2, 4, 1, 3]
        kernels = [1, 5, 6, 13, 9, 21, 11]  # 6 and 13 are midpoint ties
        rows = provider.features(ids, kernels, noise_base=8, epoch=3)
        assert rows.dtype == np.float64 and rows.shape == (7, 3, 5)
        for row, i, k in zip(rows, ids, kernels):
            level = select_kernel_level_loop(bank.kernel_levels, k)
            np.testing.assert_array_equal(row, level_block(bank, level)[i])
        assert provider.level_clamps == 2  # kernels 1 and 21

    def test_out_of_range_requests_counted(self):
        provider = BankProvider(tiny_bank(levels=(3, 9)))
        assert provider.level_clamps == 0
        provider.features([0], [5])
        assert provider.level_clamps == 0
        provider.features([0], [1])
        provider.features([0], [11])
        assert provider.level_clamps == 2
        # one count per sample, repeats included
        provider.features([0, 1, 0, 2], [1, 11, 1, 5])
        assert provider.level_clamps == 5

    def test_unknown_index_rejected(self):
        with pytest.raises(ValueError):
            BankProvider(tiny_bank()).features([99], [1])

    def test_rejected_request_counts_no_clamp(self):
        provider = BankProvider(tiny_bank(levels=(3, 9)))
        with pytest.raises(ValueError, match="sample index 99 outside the bank"):
            provider.features([0, 99], [1, 11])
        assert provider.level_clamps == 0


class TestNoiseSeedDerivation:
    def test_deterministic(self):
        assert derive_noise_seed(1, 2, 3) == derive_noise_seed(1, 2, 3)

    def test_distinct_across_axes(self):
        seeds = {
            derive_noise_seed(1, 2, 3),
            derive_noise_seed(1, 2, 4),
            derive_noise_seed(1, 3, 3),
            derive_noise_seed(2, 2, 3),
        }
        assert len(seeds) == 4

    def test_fits_in_uint32(self):
        for epoch in range(20):
            assert 0 <= derive_noise_seed(42, 17, epoch) < 2**32
