"""Procedural paired dataset: rendered blob images and matched vectors.

Each class owns a seeded style (background colour plus a handful of soft
geometric blobs); each sample is a jittered rendering of its class style,
quantized to uint8 pixmap levels. Those levels are written and read back
as they are, so the in-memory image equals its on-disk round trip bit for
bit, at an eighth of the bytes of its float64 widening.

The "neural" vector paired with a sample is a fixed linear map of the
clean image's (frozen-encoder) embedding plus seeded Gaussian noise. The
map is shared across all classes, so alignment learned on the training
classes transfers to the held-out test classes: train and test class sets
are disjoint by construction and validated on every bank load.

The embedding bank is the dataset record (tag, labels, splits, neural
vectors and view features), with the images beside it as a sequence.
Only `generate_dataset` and `load_dataset` (with its `Pixmaps`) know the
directory layout: `bank.bicp` plus `images/sample_%05d.ppm`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ConfigError, FormatError
from .pixmap import read_pixmap, to_bytes_quantized, write_pixmap
from .providers import (
    BLOCK, EmbeddingBank, SyntheticProvider, load_embedding_bank, save_embedding_bank,
)

__all__ = [
    "BANK_FILE", "IMAGES_DIR", "render_sample", "generate_dataset", "Pixmaps", "load_dataset",
]

BANK_FILE, IMAGES_DIR = "bank.bicp", "images"

# sub-seed tags keep the independent generator streams apart
_STYLE_TAG, _SAMPLE_TAG, _MAP_TAG, _NEURAL_NOISE_TAG, _VIEW_NOISE_TAG = 0, 1, 2, 3, 4


def _stream(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def _class_style(data_seed: int, class_id: int) -> dict:
    rng = _stream(data_seed, _STYLE_TAG, class_id)
    blobs = []
    for _ in range(int(rng.integers(2, 5))):
        blobs.append({
            "kind": "circle" if rng.random() < 0.5 else "square",
            "center": rng.uniform(0.2, 0.8, size=2),
            "radius": float(rng.uniform(0.08, 0.28)),
            "color": rng.uniform(0.15, 0.95, size=3),
        })
    return {"background": rng.uniform(0.05, 0.35, size=3), "blobs": blobs}


def render_sample(style: dict, rng: np.random.Generator, size: int) -> np.ndarray:
    """One jittered rendering of a class style as (3, size, size) uint8 levels.

    A blob's coverage is exactly 0 beyond radius + 0.5 of its centre, where
    the blend leaves the canvas as it is, so each blob is painted over its
    box only: the rows and columns within radius + 1 of its centre (a
    1-pixel margin), clamped to the image."""
    canvas = np.ones((3, size, size)) * style["background"][:, None, None]
    grid = np.arange(size, dtype=np.float64)
    for blob in style["blobs"]:
        cy, cx = (blob["center"] + rng.normal(0.0, 0.02, size=2)) * size
        radius = blob["radius"] * size * (1.0 + rng.normal(0.0, 0.05))
        radius = max(radius, 1.5)
        color = np.clip(blob["color"] + rng.normal(0.0, 0.02, size=3), 0.0, 1.0)
        (top, bottom), (left, right) = (
            (max(math.ceil(c - radius - 1.0), 0), min(math.floor(c + radius + 1.0) + 1, size))
            for c in (cy, cx)
        )
        dy, dx = grid[top:bottom, None] - cy, grid[None, left:right] - cx
        if blob["kind"] == "circle":
            dist = np.hypot(dy, dx)
        else:
            dist = np.maximum(np.abs(dy), np.abs(dx))
        coverage = np.clip(radius - dist + 0.5, 0.0, 1.0)  # 1-pixel soft edge
        box = canvas[:, top:bottom, left:right]
        box[...] = box * (1.0 - coverage) + color[:, None, None] * coverage
    return to_bytes_quantized(canvas)


def generate_dataset(config: RunConfig, directory) -> EmbeddingBank:
    """Render every sample into the dataset directory `directory` and return
    its embedding bank: the paired vectors, unrounded, and the view
    features at the configured kernel levels.

    Classes [0, classes - test_classes) are training classes with
    `train_samples_per_class` renderings each; the remaining classes are
    test classes with a single rendering each (one image per concept).
    Samples are rendered, encoded and written BLOCK at a time, so at most
    BLOCK images are held at once. A MemoryError raised from then on says
    that `directory` is left incomplete, with no bank written.
    """
    d = config.data
    train_classes = d.classes - d.test_classes
    # (class, copy) of each sample, in sample order
    samples = [(class_id, copy) for class_id in range(d.classes)
               for copy in range(d.train_samples_per_class if class_id < train_classes else 1)]
    # the noise does not depend on the images: it is drawn, and a scale
    # past the float range named, before any rendering
    with np.errstate(over="ignore"):
        noise = d.neural_noise * np.stack([
            _stream(d.seed, _NEURAL_NOISE_TAG, i).standard_normal(d.dim_neural)
            for i in range(len(samples))
        ])
    if not np.all(np.isfinite(noise)):
        raise ConfigError(
            f"data.neural_noise {d.neural_noise!r} takes the neural vectors past the float range"
        )
    styles = [_class_style(d.seed, class_id) for class_id in range(d.classes)]
    dim, levels = config.provider.dim_feature, tuple(sorted(d.bank_levels))
    images = [None] * len(samples)
    provider = SyntheticProvider(config.transforms, config.views, dim, config.provider.seed, images)
    clean = np.empty((len(samples), dim))
    features = np.empty((len(samples), len(levels), config.views.count, dim), dtype=np.float32)
    root = Path(directory)
    (root / IMAGES_DIR).mkdir(parents=True, exist_ok=True)
    try:
        # every row is per image, so a block's rows equal those of one batch of all samples
        for start in range(0, len(samples), BLOCK):
            ids = np.arange(start, min(start + BLOCK, len(samples)))
            for i in ids.tolist():
                class_id, copy = samples[i]
                rng = _stream(d.seed, _SAMPLE_TAG, class_id, copy)
                images[i] = render_sample(styles[class_id], rng, d.image_size)
            clean[ids] = provider.encoder.encode(np.stack(images[start : start + BLOCK]) / 255.0)
            # one request per level; the provider's cache serves the
            # kernel-independent rows, the noise row included, once per sample
            for j, level in enumerate(levels):
                kernels = np.full(len(ids), level)
                features[ids, j] = provider.features(ids, kernels, d.seed + _VIEW_NOISE_TAG, 0)
            for i in ids.tolist():
                write_pixmap(_image_path(root, i), images[i])
                images[i] = None
            provider._rows.clear()  # no row of a finished block is asked for again
    except MemoryError as exc:  # some pixmaps may be written, but no bank
        raise MemoryError(f"{exc}; {root} is left incomplete, with no {BANK_FILE} "
                          f"written by this run") from exc
    neural_map = _stream(d.seed, _MAP_TAG).standard_normal((dim, d.dim_neural)) / np.sqrt(dim)
    bank = EmbeddingBank(
        tag=d.tag,
        sample_count=len(samples),
        views=config.views.count,
        dim_feature=dim,
        dim_neural=d.dim_neural,
        kernel_levels=levels,
        labels=tuple(class_id for class_id, _ in samples),
        splits=tuple("train" if class_id < train_classes else "test" for class_id, _ in samples),
        features=features,
        neural=clean @ neural_map + noise,
    )
    save_embedding_bank(root / BANK_FILE, bank)  # validates the bank first
    return bank


def _image_path(root: Path, index: int) -> Path:
    return root / IMAGES_DIR / f"sample_{index:05d}.ppm"


class Pixmaps(Sequence):
    """The pixmaps of a dataset directory, one entry per sample: sample i's
    (3, H, W) uint8 levels, read from its file each time the entry is
    asked for, or None for a sample outside `splits`. Only the first
    pixmap read is kept, and handed out again when its entry is asked
    for; every other pixmap must have its size."""

    def __init__(self, root: Path, sample_splits, splits):
        self.root = root
        self._listed = [split in splits for split in sample_splits]
        self._first = None  # (index, levels) of the first pixmap read

    def __len__(self) -> int:
        return len(self._listed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self._listed))[index]]
        index = range(len(self._listed))[index]  # IndexError past the end ends iteration
        if not self._listed[index]:
            return None
        if self._first is not None and self._first[0] == index:
            return self._first[1]
        levels = read_pixmap(_image_path(self.root, index))
        if self._first is None:
            self._first = (index, levels)
        elif levels.shape != self._first[1].shape:
            (_, h, w), (_, h0, w0) = levels.shape, self._first[1].shape
            raise FormatError(f"{_image_path(self.root, index)}: pixmap is {w}x{h}, "
                              f"{_image_path(self.root, self._first[0]).name} is {w0}x{h0}")
        return levels


def load_dataset(directory, splits=("train", "test"), lazy: bool = False, *,
                 features: bool = True) -> tuple[EmbeddingBank, Sequence]:
    """Read a dataset directory back as (bank, images), each image its
    (3, H, W) uint8 levels. Only the pixmaps of samples in `splits` are
    read; the other entries of `images` are None. Every pixmap read must
    have the size of the first one. `images` is a list of every read
    pixmap, or with `lazy` a `Pixmaps` that reads each one when it is
    asked for and holds none but the first. Without `features` the bank's
    feature block is checked but not kept (`bank.features` is None), as
    for a provider that encodes the pixmaps instead."""
    root = Path(directory)
    bank = load_embedding_bank(root / BANK_FILE, features=features)
    images = Pixmaps(root, bank.splits, splits)
    return bank, images if lazy else list(images)
