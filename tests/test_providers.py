"""Feature providers: frozen encoder, embedding bank, level selection."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import einsum_encode, level_block, random_image, rewrite_bank_header
from fovalign.config import TransformConfig, ViewsConfig
from fovalign.errors import FormatError, ProtocolError
from fovalign.providers import (
    BANK_MAGIC,
    BLOCK,
    BankProvider,
    EmbeddingBank,
    SyntheticEncoder,
    SyntheticProvider,
    derive_noise_seed,
    load_embedding_bank,
    save_embedding_bank,
    select_kernel_level,
)


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

    def test_small_images_poolable(self):
        # images below the pool grid still encode
        enc = SyntheticEncoder(8, seed=1)
        z = enc.encode(np.random.default_rng(3).random((3, 2, 2)))
        np.testing.assert_allclose(np.linalg.norm(z), 1.0, rtol=1e-12)

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


def _tiny_bank(levels=(1, 9), n=6, views=3, dim_f=5, dim_n=4, test_from=4):
    rng = np.random.default_rng(42)
    features = np.stack(
        [rng.standard_normal((n, views, dim_f)).astype(np.float32) for _ in levels], axis=1
    )
    labels = np.arange(n, dtype=np.int64)
    splits = ["train" if i < test_from else "test" for i in range(n)]
    return EmbeddingBank(
        tag="tiny",
        views=views,
        dim_feature=dim_f,
        dim_neural=dim_n,
        kernel_levels=list(levels),
        features=features,
        neural=rng.standard_normal((n, dim_n)).astype(np.float32),
        labels=labels,
        splits=splits,
    )


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
        views=views,
        dim_feature=dim_f,
        dim_neural=dim_n,
        kernel_levels=levels,
        features=values((n, len(levels), views, dim_f)).astype(
            draw(st.sampled_from([np.float32, np.float64]))
        ),
        neural=values((n, dim_n)),
        labels=np.arange(n, dtype=np.int64),
        splits=["train" if i < test_from else "test" for i in range(n)],
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
}


class TestEmbeddingBank:
    def test_round_trip_bit_identical(self, tmp_path):
        bank = _tiny_bank()
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, bank)
        loaded = load_embedding_bank(path)
        assert loaded.tag == bank.tag
        assert loaded.kernel_levels == bank.kernel_levels
        assert loaded.splits == bank.splits
        np.testing.assert_array_equal(loaded.labels, bank.labels)
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

    def test_loaded_features_view_the_payload(self, tmp_path):
        bank = _tiny_bank(levels=(1, 5, 9))
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, bank)
        loaded = load_embedding_bank(path)
        assert loaded.features.shape == (6, 3, 3, 5)
        assert loaded.features.dtype == np.float32
        assert not loaded.features.flags.owndata

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bicp", tmp_path / "b.bicp"
        save_embedding_bank(a, _tiny_bank())
        save_embedding_bank(b, _tiny_bank())
        assert a.read_bytes() == b.read_bytes()

    def test_magic_and_version(self, tmp_path):
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, _tiny_bank())
        head = path.read_bytes()[:8]
        assert head[:4] == BANK_MAGIC
        assert struct.unpack("<I", head[4:])[0] == 1

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, _tiny_bank())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_embedding_bank(path)

    @pytest.mark.parametrize(
        "changes", MALFORMED_BANK_HEADERS.values(), ids=MALFORMED_BANK_HEADERS.keys()
    )
    def test_malformed_header_rejected(self, tmp_path, changes):
        path = tmp_path / "bank.bicp"
        save_embedding_bank(path, _tiny_bank())
        rewrite_bank_header(path, **changes)
        with pytest.raises(FormatError, match="bank header"):
            load_embedding_bank(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bank.bicp"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_embedding_bank(path)

    def test_class_overlap_violates_protocol(self):
        bank = _tiny_bank()
        bank.labels = np.array([0, 1, 2, 3, 3, 5])  # class 3 in both splits
        with pytest.raises(ProtocolError):
            bank.validate()

    def test_even_level_rejected(self):
        bank = _tiny_bank(levels=(2, 9))
        with pytest.raises(FormatError):
            bank.validate()

    def test_unsorted_levels_rejected(self):
        bank = _tiny_bank()
        bank.kernel_levels = [9, 1]
        with pytest.raises(FormatError):
            bank.validate()

    def test_non_finite_rejected(self):
        bank = _tiny_bank()
        bank.neural[0, 0] = np.nan
        with pytest.raises(FormatError):
            bank.validate()

    def test_non_finite_feature_rejected(self):
        bank = _tiny_bank()
        bank.features[5, 1, 2, 4] = np.inf
        with pytest.raises(FormatError, match="features contain non-finite values"):
            bank.validate()

    def test_features_missing_a_level_rejected(self):
        bank = _tiny_bank(levels=(1, 5, 9))
        bank.features = bank.features[:, :2]
        with pytest.raises(FormatError, match="features have shape"):
            bank.validate()

    def test_bad_split_tag_rejected(self):
        bank = _tiny_bank()
        bank.splits[1] = "validation"
        with pytest.raises(FormatError):
            bank.validate()

    def test_indices_partition_samples(self):
        bank = _tiny_bank()
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
        bank = _tiny_bank()
        bank.splits = splits
        got = bank.indices(split)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def select_kernel_level_loop(levels, kernel: int) -> int:
    """The scalar selector the vectorised one replaced, kept as its oracle."""
    best = None
    for level in levels:
        distance = abs(int(kernel) - int(level))
        if best is None or distance < best[0] or (distance == best[0] and level > best[1]):
            best = (distance, int(level))
    return best[1]


class TestKernelLevelSelection:
    def test_exact_hit(self):
        assert select_kernel_level([1, 75, 149], 75) == 75

    def test_nearest_wins(self):
        picks = select_kernel_level([1, 75, 149], [30, 45, 120])
        np.testing.assert_array_equal(picks, [1, 75, 149])

    def test_midpoint_tie_resolves_upward(self):
        assert select_kernel_level([51, 75], 63) == 75
        assert select_kernel_level([1, 5], 3) == 5

    def test_monotone_in_kernel(self):
        picks = select_kernel_level([1, 25, 75, 149], np.arange(1, 150, 2))
        assert np.all(np.diff(picks) >= 0)

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            select_kernel_level([], 5)

    @settings(max_examples=300, deadline=None)
    @given(
        levels=st.lists(st.integers(0, 80).map(lambda n: 2 * n + 1), min_size=1, max_size=6,
                        unique=True),
        kernels=st.lists(st.integers(-5, 170), min_size=1, max_size=20),
    )
    def test_matches_the_scalar_loop(self, levels, kernels):
        picks = select_kernel_level(levels, kernels)
        assert picks.shape == (len(kernels),)
        assert picks.tolist() == [select_kernel_level_loop(levels, k) for k in kernels]


ALL_VIEWS = ("identity", "foveated", "noise", "lowres", "mosaic")
BATCH_IMAGES = [random_image(np.random.default_rng(20 + i), height=16, width=16) for i in range(4)]
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
        image = random_image(rng, height=32, width=32)
        provider = self._provider([image])
        rows = provider.features([0], [9], noise_base=4, epoch=2)
        assert rows.shape == (1, 4, 8)
        noise_seed = derive_noise_seed(4, 0, 2)
        for i, name in enumerate(provider.view_names):
            view = provider.view_image(name, image, 9, noise_seed)
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
                want = [encode(view_image(n, BATCH_IMAGES[i], k, seed)) for n in provider.view_names]
                np.testing.assert_array_equal(rows[j], np.stack(want))

    def test_cached_rows_match_fresh_rows(self, monkeypatch):
        # repeated requests reuse cached rows; only the foveated row follows
        # the kernel and only the noise row follows the epoch. A row is
        # re-rendered only when its kernel or seed differs from the last one.
        image = random_image(np.random.default_rng(9), height=32, width=32)
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
                fresh = provider.encoder.encode(view_image(name, image, kernel, seed))
                np.testing.assert_array_equal(row, fresh)
                moved = (name == "foveated" and kernel != 3) or (name == "noise" and epoch != 0)
                assert np.array_equal(row, base_row) != moved, (name, kernel, epoch)

    def test_cache_holds_one_row_per_index_and_view(self):
        rng = np.random.default_rng(11)
        images = [random_image(rng, height=16, width=16) for _ in range(2)]
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

    def test_misses_beyond_one_block_equal_per_sample_rows(self, monkeypatch):
        # 40 samples, 13 warmed: hits, replaced foveated rows and more than
        # BLOCK misses per view, over two image shapes that never share a block
        rng = np.random.default_rng(13)
        images = [random_image(rng, height=20, width=20 if i % 8 else 24) for i in range(40)]
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
            want = [encode(provider.view_image(n, images[i], k, seed)) for n in provider.view_names]
            np.testing.assert_array_equal(rows[j], np.stack(want))
        hits = {"foveated": sum(k == 5 for i, k in zip(ids, kernels) if i in warm)}
        for name in ("identity", "noise", "lowres", "mosaic"):
            hits[name] = len(warm)
        assert sum(shape[0] for shape in blocks) == sum(40 - h for h in hits.values())
        assert max(shape[0] for shape in blocks) == BLOCK
        assert {shape[1:] for shape in blocks} == {(3, 20, 20), (3, 20, 24)}

    def test_batch_stacks_samples(self):
        rng = np.random.default_rng(10)
        images = [random_image(rng, height=16, width=16) for _ in range(3)]
        provider = self._provider(images)
        feats = provider.features([2, 0], [3, 9], noise_base=1, epoch=4)
        assert feats.shape == (2, 4, 8)
        np.testing.assert_array_equal(feats[0], provider.features([2], [3], 1, 4)[0])
        np.testing.assert_array_equal(feats[1], provider.features([0], [9], 1, 4)[0])

    def test_empty_batch(self):
        provider = self._provider([random_image(np.random.default_rng(0))])
        assert provider.features([], []).shape == (0, 4, 8)

    def test_disabled_views_drop_rows(self):
        provider = self._provider(noise=False)
        assert provider.view_names == ["foveated", "lowres", "mosaic"]
        assert provider.features([], []).shape == (0, 3, 8)

    def test_identity_view_is_plain_encoding(self):
        rng = np.random.default_rng(6)
        image = random_image(rng, height=16, width=16)
        provider = SyntheticProvider(
            TransformConfig(), ViewsConfig(
                foveated=False, noise=False, lowres=False, mosaic=False, identity=True
            ), dim=8, seed=3, images=[image],
        )
        rows = provider.features([0], [75])
        np.testing.assert_array_equal(rows[0, 0], provider.encoder.encode(image))

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
        provider = self._provider([random_image(np.random.default_rng(0))])
        for index in (1, -1):
            with pytest.raises(ValueError, match="has no image"):
                provider.features([0, index], [9, 9])
        assert provider._rows == {}

    def test_unread_image_rejected(self):
        image = random_image(np.random.default_rng(0), height=32, width=32)
        provider = self._provider([image, None])
        with pytest.raises(ValueError, match="sample index 1 has no image"):
            provider.features([0, 1], [9, 9])
        assert provider._rows == {}
        assert provider.features([0], [9]).shape == (1, 4, 8)

    def test_kernel_count_must_match_ids(self):
        provider = self._provider([random_image(np.random.default_rng(0))])
        with pytest.raises(ValueError, match="1 sample ids but 2 kernels"):
            provider.features([0], [9, 9])

    def test_all_views_disabled_rejected(self):
        with pytest.raises(ValueError):
            SyntheticProvider(
                TransformConfig(),
                ViewsConfig(foveated=False, noise=False, lowres=False, mosaic=False),
                dim=8, seed=0, images=[],
            )


class TestBankProvider:
    def test_replays_stored_rows(self):
        bank = _tiny_bank()
        provider = BankProvider(bank)
        rows = provider.features([2], [9])
        np.testing.assert_array_equal(rows[0], level_block(bank, 9)[2].astype(np.float64))

    def test_nearest_level_selected(self):
        bank = _tiny_bank(levels=(1, 9))
        provider = BankProvider(bank)
        rows = provider.features([0], [3])
        np.testing.assert_array_equal(rows[0], level_block(bank, 1)[0].astype(np.float64))

    def test_batch_reads_each_sample_at_its_level(self):
        bank = _tiny_bank(levels=(3, 9, 17))
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
        provider = BankProvider(_tiny_bank(levels=(3, 9)))
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
            BankProvider(_tiny_bank()).features([99], [1])

    def test_rejected_request_counts_no_clamp(self):
        provider = BankProvider(_tiny_bank(levels=(3, 9)))
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
