"""Procedural paired dataset: rendered blob images and matched vectors.

Each class owns a seeded style (background colour plus a handful of soft
geometric blobs); each sample is a jittered rendering of its class style,
quantized to the 8-bit pixmap grid so the in-memory image equals its
on-disk round trip bit for bit.

The "neural" vector paired with a sample is a fixed linear map of the
clean image's (frozen-encoder) embedding plus seeded Gaussian noise. The
map is shared across all classes, so alignment learned on the training
classes transfers to the held-out test classes: train and test class sets
are disjoint by construction and validated on every bank load.

The embedding bank is the dataset record (tag, labels, splits, neural
vectors and view features), with the images beside it as a list. Only
`save_dataset` and `load_dataset` know the directory layout: `bank.bicp`
plus `images/sample_%05d.ppm`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import RunConfig
from .pixmap import read_pixmap, to_bytes_quantized, write_pixmap
from .providers import (
    BLOCK, EmbeddingBank, SyntheticProvider, load_embedding_bank, save_embedding_bank,
)

__all__ = ["BANK_FILE", "IMAGES_DIR", "render_sample", "generate_dataset", "save_dataset",
           "load_dataset"]

BANK_FILE, IMAGES_DIR = "bank.bicp", "images"

# sub-seed tags keep the independent generator streams apart
_STYLE_TAG, _SAMPLE_TAG, _MAP_TAG, _NEURAL_NOISE_TAG, _VIEW_NOISE_TAG = 0, 1, 2, 3, 4


def _class_style(data_seed: int, class_id: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence((data_seed, _STYLE_TAG, class_id)))
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
    """One jittered rendering of a class style, quantized to 8-bit levels."""
    canvas = np.ones((3, size, size)) * style["background"][:, None, None]
    rows = np.arange(size, dtype=np.float64)[:, None]
    cols = np.arange(size, dtype=np.float64)[None, :]
    for blob in style["blobs"]:
        cy, cx = (blob["center"] + rng.normal(0.0, 0.02, size=2)) * size
        radius = blob["radius"] * size * (1.0 + rng.normal(0.0, 0.05))
        radius = max(radius, 1.5)
        color = np.clip(blob["color"] + rng.normal(0.0, 0.02, size=3), 0.0, 1.0)
        dy, dx = rows - cy, cols - cx
        if blob["kind"] == "circle":
            dist = np.hypot(dy, dx)
        else:
            dist = np.maximum(np.abs(dy), np.abs(dx))
        coverage = np.clip(radius - dist + 0.5, 0.0, 1.0)  # 1-pixel soft edge
        canvas = canvas * (1.0 - coverage) + color[:, None, None] * coverage
    return to_bytes_quantized(canvas).astype(np.float64) / 255.0


def generate_dataset(config: RunConfig) -> tuple[EmbeddingBank, list[np.ndarray]]:
    """Render every sample and return (bank, images): the embedding bank
    holds the paired vectors, unrounded, and the view features at the
    configured kernel levels.

    Classes [0, classes - test_classes) are training classes with
    `train_samples_per_class` renderings each; the remaining classes are
    test classes with a single rendering each (one image per concept).
    """
    d = config.data
    train_classes = d.classes - d.test_classes
    images: list[np.ndarray] = []
    labels: list[int] = []
    splits: list[str] = []
    for class_id in range(d.classes):
        style = _class_style(d.seed, class_id)
        split = "train" if class_id < train_classes else "test"
        copies = d.train_samples_per_class if split == "train" else 1
        for copy in range(copies):
            rng = np.random.default_rng(
                np.random.SeedSequence((d.seed, _SAMPLE_TAG, class_id, copy))
            )
            images.append(render_sample(style, rng, d.image_size))
            labels.append(class_id)
            splits.append(split)

    provider = SyntheticProvider(
        config.transforms, config.views,
        config.provider.dim_feature, config.provider.seed, images,
    )
    # encoded BLOCK images per call, never as one stack of every image
    clean = np.empty((len(images), config.provider.dim_feature))
    for start in range(0, len(images), BLOCK):
        block = np.stack(images[start : start + BLOCK])
        clean[start : start + BLOCK] = provider.encoder.encode(block)
    map_rng = np.random.default_rng(np.random.SeedSequence((d.seed, _MAP_TAG)))
    neural_map = map_rng.standard_normal(
        (config.provider.dim_feature, d.dim_neural)
    ) / np.sqrt(config.provider.dim_feature)
    neural = clean @ neural_map
    for i in range(len(images)):
        noise_rng = np.random.default_rng(
            np.random.SeedSequence((d.seed, _NEURAL_NOISE_TAG, i))
        )
        neural[i] += d.neural_noise * noise_rng.standard_normal(d.dim_neural)

    levels = sorted(d.bank_levels)
    ids = np.arange(len(images))
    features = np.empty(
        (len(ids), len(levels), config.views.count, config.provider.dim_feature), dtype=np.float32
    )
    # one request per level; the provider's cache serves the
    # kernel-independent rows, the noise row included, once per sample
    for j, level in enumerate(levels):
        features[:, j] = provider.features(ids, np.full(len(ids), level), d.seed + _VIEW_NOISE_TAG, 0)
    bank = EmbeddingBank(
        tag=d.tag,
        views=config.views.count,
        dim_feature=config.provider.dim_feature,
        dim_neural=d.dim_neural,
        kernel_levels=levels,
        features=features,
        neural=neural,
        labels=np.asarray(labels, dtype=np.int64),
        splits=splits,
    ).validate()
    return bank, images


def _image_path(root: Path, index: int) -> Path:
    return root / IMAGES_DIR / f"sample_{index:05d}.ppm"


def save_dataset(directory, bank: EmbeddingBank, images) -> None:
    """Write `images` as pixmaps and `bank` as the bank file of a dataset
    directory."""
    root = Path(directory)
    (root / IMAGES_DIR).mkdir(parents=True, exist_ok=True)
    for i, image in enumerate(images):
        write_pixmap(_image_path(root, i), image)
    save_embedding_bank(root / BANK_FILE, bank)


def load_dataset(directory, splits=("train", "test")) -> tuple[EmbeddingBank, list]:
    """Read a dataset directory back as (bank, images). Only the pixmaps of
    samples in `splits` are read; the other entries of `images` are None."""
    root = Path(directory)
    bank = load_embedding_bank(root / BANK_FILE)
    images = [
        read_pixmap(_image_path(root, i)) if split in splits else None
        for i, split in enumerate(bank.splits)
    ]
    return bank, images
