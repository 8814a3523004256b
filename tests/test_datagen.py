"""Procedural dataset generation: determinism, layout, pairing, bank."""

import dataclasses
import re
import shutil
import weakref

import numpy as np
import pytest

from conftest import einsum_encode, generate_and_load, level_block, tiny_config
import fovalign.datagen
import fovalign.providers
from fovalign.datagen import (
    _MAP_TAG, _SAMPLE_TAG, _VIEW_NOISE_TAG, _class_style, _stream, generate_dataset, load_dataset,
    render_sample,
)
from fovalign.errors import FormatError
from fovalign.pixmap import read_pixmap, to_bytes_quantized, write_pixmap
from fovalign.providers import (
    BLOCK,
    SyntheticEncoder,
    SyntheticProvider,
    derive_noise_seed,
    save_embedding_bank,
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """The directory the tiny dataset is generated into."""
    return tmp_path_factory.mktemp("dataset")


@pytest.fixture(scope="module")
def generated(dataset_dir):
    return generate_and_load(tiny_config(), dataset_dir)


def _style():
    return {
        "background": np.array([0.1, 0.2, 0.3]),
        "blobs": [
            {"kind": "circle", "center": np.array([0.5, 0.5]), "radius": 0.2,
             "color": np.array([0.9, 0.1, 0.1])},
            {"kind": "square", "center": np.array([0.3, 0.7]), "radius": 0.15,
             "color": np.array([0.2, 0.8, 0.3])},
        ],
    }


class TestRenderSample:
    def test_shape_and_range(self):
        img = render_sample(_style(), np.random.default_rng(0), 32)
        assert img.shape == (3, 32, 32)
        assert img.dtype == np.uint8  # levels 0..255, intensities [0, 1] once widened

    def test_deterministic_for_equal_rng_state(self):
        a = render_sample(_style(), np.random.default_rng(5), 16)
        b = render_sample(_style(), np.random.default_rng(5), 16)
        np.testing.assert_array_equal(a, b)

    def test_jitter_changes_rendering(self):
        a = render_sample(_style(), np.random.default_rng(1), 16)
        b = render_sample(_style(), np.random.default_rng(2), 16)
        assert not np.array_equal(a, b)

    def test_quantized_to_8bit_grid(self):
        # the levels survive a widening to [0, 1] and its requantization
        img = render_sample(_style(), np.random.default_rng(3), 16)
        np.testing.assert_array_equal(to_bytes_quantized(img / 255.0), img)

    def test_blobs_land_on_canvas(self):
        img = render_sample(_style(), np.random.default_rng(4), 32) / 255.0
        background = np.array([0.1, 0.2, 0.3])
        off_background = np.any(
            np.abs(img - background[:, None, None]) > 0.1, axis=0
        )
        assert off_background.sum() > 20  # the shapes actually painted pixels


class TestGenerate:
    def test_deterministic(self, generated, tmp_path):
        (a, a_images), (b, b_images) = generated, generate_and_load(tiny_config(), tmp_path)
        assert len(a_images) == len(b_images)
        for x, y in zip(a_images, b_images):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.neural, b.neural)
        assert a.labels == b.labels
        assert a.splits == b.splits
        for level in a.kernel_levels:
            np.testing.assert_array_equal(level_block(a, level), level_block(b, level))

    def test_data_seed_changes_everything(self, tmp_path):
        cfg = tiny_config()
        other = dataclasses.replace(
            cfg, data=dataclasses.replace(cfg.data, seed=cfg.data.seed + 1)
        )
        a, a_images = generate_and_load(cfg, tmp_path / "a")
        b, b_images = generate_and_load(other, tmp_path / "b")
        assert not np.array_equal(a_images[0], b_images[0])
        assert not np.array_equal(a.neural, b.neural)

    def test_split_layout(self, generated):
        cfg = tiny_config()
        bank, _ = generated
        train_classes = cfg.data.classes - cfg.data.test_classes
        n_train = train_classes * cfg.data.train_samples_per_class
        assert bank.sample_count == n_train + cfg.data.test_classes
        assert bank.splits == ("train",) * n_train + ("test",) * cfg.data.test_classes
        # training labels repeat per class; each test class appears once
        assert bank.labels == tuple(
            np.repeat(np.arange(train_classes), cfg.data.train_samples_per_class).tolist()
        ) + tuple(range(train_classes, cfg.data.classes))

    def test_train_and_test_classes_disjoint(self, generated):
        bank, _ = generated
        train_labels = {bank.labels[i] for i in bank.indices("train")}
        test_labels = {bank.labels[i] for i in bank.indices("test")}
        assert train_labels.isdisjoint(test_labels)

    def test_same_class_samples_share_style(self, generated):
        # two renderings of one class differ only by jitter: much closer
        # to each other than to a different class
        bank, levels = generated
        images = [image / 255.0 for image in levels]  # uint8 differences wrap modulo 256
        same = np.abs(images[0] - images[1]).mean()
        other = bank.labels.index(1)
        cross = np.abs(images[0] - images[other]).mean()
        assert same < cross

    def test_neural_is_a_shared_linear_map_of_clean_embeddings(self, tmp_path):
        # with the pairing noise off, every neural vector must be the same
        # linear function of its clean-image embedding: the least-squares
        # map fits all samples (train and test alike) with zero residual
        cfg = tiny_config()
        cfg = dataclasses.replace(
            cfg, data=dataclasses.replace(cfg.data, neural_noise=0.0)
        )
        bank, images = generate_and_load(cfg, tmp_path)
        from fovalign.providers import SyntheticEncoder

        encoder = SyntheticEncoder(cfg.provider.dim_feature, cfg.provider.seed)
        clean = np.stack([encoder.encode(img / 255.0) for img in images])
        mapping, residual, rank, _ = np.linalg.lstsq(clean, bank.neural, rcond=None)
        fitted = clean @ mapping
        np.testing.assert_allclose(fitted, bank.neural, atol=1e-9)

    def test_clean_embeddings_are_encoded_in_blocks(self, monkeypatch, tmp_path):
        # with the pairing noise off, neural = clean @ map exactly; the clean
        # rows, encoded BLOCK images per call right after the block is
        # rendered, equal the per-image oracle
        cfg = tiny_config()
        cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, neural_noise=0.0))
        events = []  # "render", or the shape of an encoder call
        encode, render = SyntheticEncoder.encode, fovalign.datagen.render_sample
        monkeypatch.setattr(
            SyntheticEncoder, "encode", lambda self, x: events.append(np.shape(x)) or encode(self, x)
        )
        monkeypatch.setattr(
            fovalign.datagen, "render_sample", lambda *a: events.append("render") or render(*a)
        )
        bank, images = generate_and_load(cfg, tmp_path)
        clean_blocks = [e for prev, e in zip(events, events[1:]) if prev == "render" != e]
        assert [s[0] for s in clean_blocks] == [
            min(BLOCK, len(images) - start) for start in range(0, len(images), BLOCK)
        ]
        assert max(e[0] for e in events if e != "render") <= BLOCK
        encoder = SyntheticEncoder(cfg.provider.dim_feature, cfg.provider.seed)
        clean = np.stack([einsum_encode(encoder, img / 255.0) for img in images])
        map_rng = np.random.default_rng(np.random.SeedSequence((cfg.data.seed, _MAP_TAG)))
        neural_map = map_rng.standard_normal(
            (cfg.provider.dim_feature, cfg.data.dim_neural)
        ) / np.sqrt(cfg.provider.dim_feature)
        np.testing.assert_array_equal(bank.neural, clean @ neural_map)

    def test_pairing_noise_perturbs_neural(self, generated, tmp_path):
        cfg = tiny_config()
        quiet = dataclasses.replace(
            cfg, data=dataclasses.replace(cfg.data, neural_noise=0.0)
        )
        clean = generate_dataset(quiet, tmp_path)
        delta = generated[0].neural - clean.neural
        observed = delta.std()
        assert 0.5 * cfg.data.neural_noise < observed < 2.0 * cfg.data.neural_noise

    def test_streaming_equals_all_at_once(self, generated, dataset_dir):
        # 44 samples: two full blocks and a short one. Every image is its
        # (class, copy) stream's rendering, and one request over all ids per
        # level on the written images reproduces the bank bit for bit
        cfg, (_, images) = tiny_config(), generated
        bank, _ = load_dataset(dataset_dir)
        assert bank.sample_count == 44 and bank.sample_count % BLOCK == 12
        for i, (image, class_id) in enumerate(zip(images, bank.labels, strict=True)):
            copy = bank.labels[:i].count(class_id)  # earlier renderings of its class
            rng = _stream(cfg.data.seed, _SAMPLE_TAG, class_id, copy)
            want = render_sample(_class_style(cfg.data.seed, class_id), rng, cfg.data.image_size)
            np.testing.assert_array_equal(image, want)
        provider = SyntheticProvider(
            cfg.transforms, cfg.views, cfg.provider.dim_feature, cfg.provider.seed, images
        )
        ids = np.arange(bank.sample_count)
        for j, level in enumerate(bank.kernel_levels):
            rows = provider.features(ids, np.full(len(ids), level), cfg.data.seed + _VIEW_NOISE_TAG, 0)
            assert rows.astype(np.float32).tobytes() == bank.features[:, j].tobytes(), level

    def test_holds_at_most_a_block_of_renders(self, monkeypatch, tmp_path):
        # at every render, at most BLOCK earlier renderings are still alive
        alive_at_render, refs = [], []
        render = fovalign.datagen.render_sample

        def tracked(*args):
            alive_at_render.append(sum(ref() is not None for ref in refs))
            image = render(*args)
            refs.append(weakref.ref(image))
            return image

        monkeypatch.setattr(fovalign.datagen, "render_sample", tracked)
        bank = generate_dataset(tiny_config(), tmp_path)
        assert len(alive_at_render) == bank.sample_count
        assert max(alive_at_render) <= BLOCK, alive_at_render


class TestBank:
    def test_levels_sorted_and_match_config(self, generated):
        cfg = tiny_config()
        assert generated[0].kernel_levels == tuple(sorted(cfg.data.bank_levels))

    def test_rows_replay_the_live_encoder(self, generated):
        cfg = tiny_config()
        bank, images = generated
        provider = SyntheticProvider(
            cfg.transforms, cfg.views, cfg.provider.dim_feature, cfg.provider.seed, images
        )
        index = 3
        image = images[index] / 255.0
        noise_seed = derive_noise_seed(cfg.data.seed + 4, index, 0)
        for level in bank.kernel_levels:
            want = np.stack([
                provider.encoder.encode(provider.view_image(name, image, level, noise_seed))
                for name in provider.view_names
            ]).astype(np.float32)
            np.testing.assert_array_equal(level_block(bank, level)[index], want)

    def test_noise_view_rendered_once_per_sample(self, monkeypatch, tmp_path):
        calls = []
        real = fovalign.providers.add_noise
        monkeypatch.setattr(
            fovalign.providers, "add_noise", lambda *a: calls.append(a) or real(*a)
        )
        cfg = tiny_config()
        bank = generate_dataset(cfg, tmp_path)
        assert len(cfg.data.bank_levels) >= 2
        assert len(calls) == bank.sample_count

    def test_kernel_independent_views_shared_across_levels(self, generated):
        bank, _ = generated
        levels = bank.kernel_levels
        cfg = tiny_config()
        names = cfg.views.enabled()
        for i in range(0, bank.sample_count, 7):
            for row, name in enumerate(names):
                a = level_block(bank, levels[0])[i, row]
                b = level_block(bank, levels[-1])[i, row]
                if name == "foveated":
                    assert not np.array_equal(a, b), f"sample {i}"
                else:
                    np.testing.assert_array_equal(a, b)


class TestLoadDataset:
    def test_round_trip_through_directory(self, generated, dataset_dir):
        bank, _ = generated
        loaded, _ = load_dataset(dataset_dir)
        # neural vectors are generated unrounded in float64 and come back
        # as their float32 rounding, widened to float64 (the images' exact
        # round trip is checked against `render_sample` above)
        assert bank.neural.dtype == loaded.neural.dtype == np.float64
        rounded = bank.neural.astype(np.float32).astype(np.float64)
        assert not np.array_equal(bank.neural, rounded)
        np.testing.assert_array_equal(loaded.neural, rounded)
        for level in bank.kernel_levels:
            np.testing.assert_array_equal(
                level_block(loaded, level), level_block(bank, level)
            )
        assert loaded.labels == bank.labels
        assert loaded.splits == bank.splits
        assert loaded.tag == bank.tag

    def test_images_are_uint8_levels_of_the_read(self, generated, dataset_dir):
        # one byte per channel and pixel, each image read_pixmap's levels;
        # C-contiguous, as the provider widens each one into a (3, H, W)
        # scratch, which a transposed view of the raster would fill by strides
        bank, images = generated
        assert len(images) == bank.sample_count
        for i, image in enumerate(images):
            assert image.dtype == np.uint8 and image.shape == (3, 32, 32)
            assert image.nbytes == 3 * 32 * 32 and image.flags.c_contiguous
            read = read_pixmap(dataset_dir / "images" / f"sample_{i:05d}.ppm")
            assert image.tobytes() == read.tobytes()

    def test_without_images(self, generated, tmp_path):
        bank, _ = generated
        save_embedding_bank(tmp_path / "bank.bicp", bank)
        loaded, images = load_dataset(tmp_path, splits=())
        assert images == [None] * bank.sample_count
        assert loaded.sample_count == bank.sample_count

    def test_lazy_slices_read_as_their_indices(self, generated, dataset_dir):
        # a slice of the lazy sequence is the list of its entries, each the
        # one its integer index reads: None outside the split
        bank, images = generated
        first_test = int(bank.indices("test")[0])
        _, lazy = load_dataset(dataset_dir, splits=("test",), lazy=True)
        for part in (slice(0, 2), slice(first_test - 1, first_test + 2), slice(None, None, -7),
                     slice(len(lazy) - 2, len(lazy) + 5)):
            got = lazy[part]
            assert isinstance(got, list) and len(got) == len(range(len(lazy))[part])
            for index, entry in zip(range(len(lazy))[part], got, strict=True):
                if bank.splits[index] == "test":
                    np.testing.assert_array_equal(entry, images[index])
                else:
                    assert entry is None

    def test_without_features_keeps_the_record(self, generated, dataset_dir):
        bank, _ = generated
        loaded, _ = load_dataset(dataset_dir, splits=(), features=False)
        assert loaded.features is None
        np.testing.assert_array_equal(loaded.neural, bank.neural.astype(np.float32))
        assert (loaded.tag, loaded.labels, loaded.splits) == (bank.tag, bank.labels, bank.splits)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_reads_only_the_listed_split(self, generated, dataset_dir, split):
        bank, images = generated
        _, loaded = load_dataset(dataset_dir, splits=(split,))
        for index, (want, got) in enumerate(zip(images, loaded, strict=True)):
            if bank.splits[index] == split:
                np.testing.assert_array_equal(got, want)
            else:
                assert got is None

    def test_mixed_sizes_rejected_naming_the_first_that_differs(self, generated, dataset_dir, tmp_path):
        # the images are 32x32; 5 is 32 wide and 24 high, 9 is 40x40
        shutil.copytree(dataset_dir, tmp_path / "data")
        images = tmp_path / "data" / "images"
        write_pixmap(images / "sample_00005.ppm", np.zeros((3, 24, 32), dtype=np.uint8))
        write_pixmap(images / "sample_00009.ppm", np.zeros((3, 40, 40), dtype=np.uint8))
        message = f"{images / 'sample_00005.ppm'}: pixmap is 32x24, sample_00000.ppm is 32x32"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_dataset(tmp_path / "data")
        # a split that reads neither is accepted
        assert load_dataset(tmp_path / "data", splits=("test",))[1][5] is None
