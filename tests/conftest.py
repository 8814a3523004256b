"""Shared test helpers: finite differences, the row-wise fsum oracle, the
per-image einsum encoder oracle, the per-group AdamW oracle, small config
factories, full-gallery distractor draws and writers of malformed
checkpoint and bank files."""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np

from fovalign.checkpoint import CHECKPOINT_MAGIC
from fovalign.providers import POOL_GRID, _pool_matrix
from fovalign.config import (
    DataConfig,
    EvalConfig,
    FusionConfig,
    ProviderConfig,
    RunConfig,
    TrainingConfig,
    TransformConfig,
)


def central_difference(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of `x`."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + step
        hi = fn(bumped)
        bumped[idx] = x[idx] - step
        lo = fn(bumped)
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise |ga - gn| / max(|ga|, |gn|, floor)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def fsum_along(arr, axis: int) -> np.ndarray:
    """math.fsum of every row along `axis`, one call per row: the loop
    oracle for exactly rounded sums. Raises whatever fsum raises first."""
    moved = np.moveaxis(np.asarray(arr, dtype=np.float64), axis, -1)
    rows = moved.reshape(math.prod(moved.shape[:-1]), moved.shape[-1])
    return np.array([math.fsum(row) for row in rows], dtype=np.float64).reshape(moved.shape[:-1])


def einsum_encode(encoder, image) -> np.ndarray:
    """One (C, H, W) image through the encoder as it was before block
    encoding: an einsum pools the height, a matrix product the width, one
    vector-matrix product projects and one norm normalizes. The oracle for
    bit-equality of `SyntheticEncoder.encode`."""
    arr = np.asarray(image, dtype=np.float64)
    _, height, width = arr.shape
    ph = _pool_matrix(height, POOL_GRID).T
    pw = _pool_matrix(width, POOL_GRID).T
    pooled = (np.einsum("chw,hg->cgw", arr, ph) @ pw).reshape(-1)
    z = pooled @ encoder.projection_matrix(arr.shape[0])
    return z / max(float(np.linalg.norm(z)), 1e-12)


class DictAdamW:
    """AdamW group by group: one moment array per group, each group updated
    out of place in sorted-name order. The oracle for bit-equality of the
    one-buffer `fovalign.alignment.AdamW`."""

    def __init__(self, params: dict, lr: float, beta1: float, beta2: float,
                 eps: float, weight_decay: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for name in sorted(params):
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            update = (self.m[name] / bias1) / (np.sqrt(self.v[name] / bias2) + self.eps)
            if self.weight_decay and params[name].ndim >= 2:
                update = update + self.weight_decay * params[name]
            params[name] = params[name] - self.lr * update


def tiny_config(**overrides) -> RunConfig:
    """A fast end-to-end config: 8 classes, 32x32 images, 16-dim features."""
    base = RunConfig(
        transforms=TransformConfig(kernel_size=15),
        provider=ProviderConfig(dim_feature=16),
        fusion=FusionConfig(dim_latent=16, dim_hidden=16, dim_bottleneck=8),
        training=TrainingConfig(epochs=2, batch_size=8, seed=11),
        data=DataConfig(
            classes=8, test_classes=4, train_samples_per_class=10,
            image_size=32, dim_neural=16, seed=5, bank_levels=(1, 15, 29),
        ),
        evaluation=EvalConfig(gallery_sizes=(4, 2), trials=5),
    )
    return dataclasses.replace(base, **overrides).validate()


def random_image(rng: np.random.Generator, channels: int = 3, height: int = 8, width: int = 8):
    return rng.random((channels, height, width))


def every_other_column(rng: np.random.Generator, queries: int, gallery: int) -> np.ndarray:
    """Distractor draws for `evaluation._ranks_among_draws` that cover all
    of the gallery but the truth, each row in its own shuffled order."""
    return np.stack([rng.permutation(gallery - 1) for _ in range(queries)])


def level_block(bank, level: int) -> np.ndarray:
    """The (N, views, dim_feature) features a bank stores at `level`."""
    return bank.features[:, bank.kernel_levels.index(level)]


def write_checkpoint_manifest(path, manifest, payload=b""):
    """A BICK file holding `manifest` verbatim, for malformed-table tests."""
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)) + blob + payload)


def rewrite_bank_header(path, **changes):
    """Replace header fields of a saved bank, keeping its payload."""
    data = path.read_bytes()
    (length,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + length])
    header.update(changes)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + length :])
