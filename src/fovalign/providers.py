"""Feature providers: the frozen image encoder and the embedding bank.

Two interchangeable sources of per-view feature rows feed the fusion
stage. The synthetic provider stands in for a pretrained image encoder:
it average-pools each view onto a fixed 16x16 patch grid, flattens, maps
through a seed-derived random projection and L2-normalizes. The bank
provider replays rows precomputed at a ladder of blur-kernel levels from
a binary embedding-bank file, ignoring pixels entirely.

An embedding bank is a `container` file with magic b"BICP" and version
1. Its header is a `BankHeader`, whose annotations declare each entry's
type and rule; its `<f4` payload holds, per sample, the (kernel_levels,
views, dim_feature) features, levels ascending, then the dim_neural
neural vector. `EmbeddingBank` is a `BankHeader` plus two arrays:
`features`, that features block for all samples, one (sample_count,
levels, views, dim_feature) array, and `neural`. `load_embedding_bank`
reads the payload in chunks of READ_BYTES, checking every row; only the
bank provider needs `features`, and a bank loaded without them has None
there, which the bank provider, `validate` and the writer refuse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Annotated

import numpy as np

from .config import _ODD, TransformConfig, ViewsConfig, _at_least, parse_record
from .container import read_header, write_container
from .errors import FormatError, ProtocolError
from .transforms import _float_pixels, add_noise, foveate, resample

__all__ = [
    "POOL_GRID",
    "BLOCK",
    "BANK_MAGIC",
    "derive_noise_seed",
    "SyntheticEncoder",
    "BankHeader",
    "EmbeddingBank",
    "save_embedding_bank",
    "load_embedding_bank",
    "SyntheticProvider",
    "BankProvider",
]

POOL_GRID = 16
BLOCK = 16  # images per encoder call; larger blocks raise peak RSS
BANK_MAGIC = b"BICP"
BANK_VERSION = 1
# payload bytes per read of a bank: the reader of a bank loaded without its
# features holds one such chunk, not the feature block
READ_BYTES = 1 << 20


def derive_noise_seed(base_seed: int, sample_index: int, epoch: int) -> int:
    """Per-sample, per-epoch noise seed: the first word of the PCG64 seed
    sequence spawned from the (base_seed, sample_index, epoch) triple."""
    ss = np.random.SeedSequence((int(base_seed), int(sample_index), int(epoch)))
    return int(ss.generate_state(1)[0])


def _check_batch(ids, kernels, count: int, missing: str) -> tuple[np.ndarray, np.ndarray]:
    """The batch's sample ids and kernels as int64 vectors of one length,
    every id in [0, count)."""
    ids = np.asarray(ids, dtype=np.int64)
    kernels = np.asarray(kernels, dtype=np.int64)
    if len(ids) != len(kernels):
        raise ValueError(f"{len(ids)} sample ids but {len(kernels)} kernels")
    bad = ids[(ids < 0) | (ids >= count)]
    if len(bad):
        raise ValueError(f"sample index {bad[0]} {missing}")
    return ids, kernels


def _pool_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """Row-stochastic averaging matrix for adaptive pooling along one axis."""
    mat = np.zeros((n_dst, n_src))
    for i in range(n_dst):
        start = (i * n_src) // n_dst
        stop = -(-(i + 1) * n_src // n_dst)  # ceil division
        mat[i, start:stop] = 1.0 / (stop - start)
    return mat


@functools.lru_cache(maxsize=64)
def _row_windows(n: int) -> tuple:
    """Height pooling of n rows as one (rows, weights) step per window
    offset. Step o holds, for every grid row, the o-th row of its window
    and that row's averaging weight; a grid row whose window is shorter
    than o + 1 gets some row at weight 0, which adds an exact zero. The
    weights are a (POOL_GRID, 1) column, or one float when they are all
    equal (every step when 16 divides n): the same products either way."""
    mat = _pool_matrix(n, POOL_GRID)
    starts = np.argmax(mat > 0, axis=1)
    lengths = np.count_nonzero(mat, axis=1)
    steps = []
    for o in range(int(lengths.max())):
        rows = np.minimum(starts + o, n - 1)
        weights = np.where(o < lengths, mat[np.arange(POOL_GRID), rows], 0.0)[:, None]
        rows.flags.writeable = weights.flags.writeable = False
        if np.all(weights == weights[0]):
            weights = float(weights[0, 0])
        if n % POOL_GRID == 0:  # equal windows: the rows are a strided view
            rows = slice(o, n, n // POOL_GRID)
        steps.append((rows, weights))
    return tuple(steps)


@functools.lru_cache(maxsize=64)
def _column_pool(n: int) -> np.ndarray:
    """(n, POOL_GRID) width pooling, read-only. It stays the transposed
    view: a contiguous copy sends matmul down another BLAS path, which
    moves the last bits of the features."""
    mat = _pool_matrix(n, POOL_GRID)
    mat.flags.writeable = False
    return mat.T


class SyntheticEncoder:
    """Deterministic stand-in for a frozen pretrained image encoder.

    encode() = L2-normalize(P @ flatten(avg_pool_16x16(image))) with P a
    fixed Gaussian projection drawn from PCG64 seeded by (seed, channels).
    The map before normalization is linear, so it is Lipschitz in pixel
    space with constant bounded by the projection operator norm (pooling
    is an averaging, hence non-expansive per pixel).

    project() and encode() take one (C, H, W) image or a (B, C, H, W)
    stack. Every row of a stack is bit-identical to that image encoded
    alone: each grid row sums its window's rows from zero in ascending
    order, the width axis and the projection are one BLAS product per
    image, and each row is normalized by its own norm.
    """

    def __init__(self, dim: int, seed: int):
        if dim < 2:
            raise ValueError(f"feature dimension must be >= 2, got {dim}")
        self.dim = int(dim)
        self.seed = int(seed)
        self._projections: dict[int, np.ndarray] = {}

    def projection_matrix(self, channels: int) -> np.ndarray:
        if channels not in self._projections:
            rows = POOL_GRID * POOL_GRID * channels
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, channels)))
            self._projections[channels] = rng.standard_normal((rows, self.dim)) / np.sqrt(rows)
        return self._projections[channels]

    def _pool(self, images: np.ndarray) -> np.ndarray:
        """(..., H, W) -> (..., POOL_GRID, POOL_GRID) window averages."""
        *lead, height, width = images.shape
        acc = np.zeros((*lead, POOL_GRID, width))
        for rows, weights in _row_windows(height):
            acc += images[..., rows, :] * weights
        return np.matmul(acc, _column_pool(width))

    def project(self, images: np.ndarray) -> np.ndarray:
        """Pre-normalization features (the linear part of encode): (dim,)
        for a (C, H, W) image, (B, dim) for a (B, C, H, W) stack."""
        arr = _float_pixels(images)
        if arr.ndim not in (3, 4):
            raise ValueError(
                f"expected a (C, H, W) image or a (B, C, H, W) stack, got shape {arr.shape}"
            )
        channels = arr.shape[-3]
        pooled = self._pool(arr).reshape(-1, 1, channels * POOL_GRID * POOL_GRID)
        # one (1, K) @ (K, dim) product per image, as for a single image
        z = np.matmul(pooled, self.projection_matrix(channels))[:, 0]
        return z.reshape(arr.shape[:-3] + (self.dim,))

    def encode(self, images: np.ndarray) -> np.ndarray:
        z = self.project(images)
        # one vector norm per row: the axis=1 norm rounds differently
        norms = [max(float(np.linalg.norm(row)), 1e-12) for row in z.reshape(-1, self.dim)]
        return z / np.reshape(norms, z.shape[:-1] + (1,))


@dataclass
class BankHeader:
    """An embedding bank file's header, one entry per field."""

    tag: str
    sample_count: Annotated[int, _at_least(1)]
    views: Annotated[int, _at_least(1)]
    dim_feature: Annotated[int, _at_least(1)]
    dim_neural: Annotated[int, _at_least(1)]
    kernel_levels: Annotated[tuple[int, ...], _ODD]
    labels: Annotated[tuple[int, ...], ("fit int64", lambda v: -(2**63) <= v < 2**63)]
    splits: Annotated[tuple[str, ...], ("be 'train' or 'test'", lambda v: v in ("train", "test"))]


@dataclass
class EmbeddingBank(BankHeader):
    """The dataset record: the header's entries, plus the precomputed
    per-view features at discrete kernel levels and the paired neural
    vectors."""

    features: np.ndarray | None  # (sample_count, len(kernel_levels), views, dim_feature) float32
    neural: np.ndarray  # (sample_count, dim_neural) float64; the bank file stores float32

    def indices(self, split: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.splits, dtype=str) == split)

    def validate(self) -> "EmbeddingBank":
        """Check the header's types and rules, then the rules that compare fields."""
        _require_features(self)
        parse_record(BankHeader, self, "bank header", FormatError)
        return self._check_fields("")

    def _check_fields(self, prefix: str, finite: bool | None = None) -> "EmbeddingBank":
        """The rules that compare fields or items; `prefix` starts each message.
        `finite` is what a reader found the features to be as it read them,
        in place of checking `features`, which it may not have kept."""
        n, levels = self.sample_count, list(self.kernel_levels)
        if not levels or levels != sorted(set(levels)):
            raise FormatError(f"{prefix}kernel levels must be non-empty, sorted and unique, got {levels}")
        shape = (n, len(levels), self.views, self.dim_feature)
        if self.features is not None and self.features.shape != shape:
            raise FormatError(f"{prefix}features have shape {self.features.shape}, expected {shape}")
        if not (np.all(np.isfinite(self.features)) if finite is None else finite):
            raise FormatError(f"{prefix}features contain non-finite values")
        if self.neural.shape != (n, self.dim_neural):
            raise FormatError(
                f"{prefix}neural block has shape {self.neural.shape}, expected {(n, self.dim_neural)}"
            )
        if not np.all(np.isfinite(self.neural)):
            raise FormatError(f"{prefix}neural block contains non-finite values")
        if len(self.labels) != n or len(self.splits) != n:
            raise FormatError(f"{prefix}labels/splits length does not match the sample count")
        classes = [{l for l, s in zip(self.labels, self.splits) if s == t} for t in ("train", "test")]
        overlap = sorted(set.intersection(*classes))
        if overlap:
            raise ProtocolError(f"{prefix}train/test class sets overlap (zero-shot protocol): {overlap[:5]}")
        return self


def _require_features(bank: EmbeddingBank) -> None:
    if bank.features is None:
        raise ValueError("the bank was loaded without its features (load_embedding_bank(path, "
                         "features=False)); load it with them to check, save or replay it")


def save_embedding_bank(path, bank: EmbeddingBank) -> None:
    bank.validate()
    n, width = bank.sample_count, bank.features[0].size
    # one (features, neural) float32 row per sample, BLOCK rows per write
    payload = (
        np.concatenate([bank.features[s : s + BLOCK].reshape(-1, width), bank.neural[s : s + BLOCK]],
                       axis=1, dtype="<f4")
        for s in range(0, n, BLOCK)
    )
    header = {f.name: getattr(bank, f.name) for f in fields(BankHeader)}
    write_container(path, BANK_MAGIC, BANK_VERSION, header, payload)


def load_embedding_bank(path, *, features: bool = True) -> EmbeddingBank:
    """The bank stored at `path`; without `features`, its feature block is
    checked as it is read but not kept, and the bank's `features` is None.
    The payload is read READ_BYTES at a time, straight into the kept array."""
    with open(path, "rb") as fh:
        raw, size = read_header(fh, path, BANK_MAGIC, BANK_VERSION, "bank")
        where = f"{path}: bank header"
        # positive counts and at least one level bound every array extent by the file size
        h = parse_record(BankHeader, raw, where, FormatError)
        if not h.kernel_levels:
            raise FormatError(f"{where}.kernel_levels must be non-empty")
        n, shape = h.sample_count, (len(h.kernel_levels), h.views, h.dim_feature)
        width = math.prod(shape)
        expected_bytes = n * (width + h.dim_neural) * 4
        if size != expected_bytes:
            raise FormatError(f"{path}: payload has {size} bytes, the bank header describes {expected_bytes}")
        step = max(1, READ_BYTES // ((width + h.dim_neural) * 4))
        flat = np.empty((n if features else min(n, step), width + h.dim_neural), dtype="<f4")
        neural = np.empty((n, h.dim_neural))
        finite = True  # every feature read so far
        for start in range(0, n, step):
            rows = flat[start : start + step] if features else flat[: min(step, n - start)]
            if fh.readinto(rows) != rows.nbytes:
                raise FormatError(f"{path}: the file ended while its payload was read")
            ok = np.isfinite(rows).all(axis=0)
            finite = finite and bool(ok[:width].all())
            # widened once checked, since a signalling NaN makes the cast warn; a
            # non-finite vector is left NaN for `_check_fields` to name
            neural[start : start + len(rows)] = rows[:, width:] if ok[width:].all() else np.nan
    block = flat[:, :width].reshape(n, *shape) if features else None
    bank = EmbeddingBank(**vars(h), features=block, neural=neural)
    return bank._check_fields(f"{path}: ", finite)  # the header's own rules were checked above


class SyntheticProvider:
    """Builds the enabled views of its samples' images and encodes them.
    `images` is a sequence with one entry per sample: uint8 (C, H, W)
    pixmap levels, or None for a sample whose pixmap is not read; asking
    for a None sample's rows raises ValueError. A `features` call fetches
    each of its samples' entries once and holds them until it returns, so
    a sequence that reads its entries on access (`datagen.Pixmaps`) is
    held one batch at a time.

    Each (index, view) keeps its last row under a key: the kernel for the
    foveated view, (noise_base, epoch) for the noise view and a constant
    for the others. A repeat request reuses the row and a new key replaces
    it, so the cache holds at most one row per (index, view). The noise
    seed is derived only when a noise row is rendered.

    A batch's images share one (C, H, W) shape. One pass over the batch
    serves the hits and lists every (sample, view) miss in batch order. A
    sample with misses is widened to [0, 1] once, into one (C, H, W)
    float64 scratch, and each of its missing views is rendered into one
    (BLOCK, C, H, W) buffer whatever the view, a block per encode call.
    """

    def __init__(self, transforms: TransformConfig, views: ViewsConfig, dim: int, seed: int,
                 images):
        if views.count < 1:
            raise ValueError("at least one view must be enabled")
        self.transforms = transforms
        self.view_names = views.enabled()
        self.encoder = SyntheticEncoder(dim, seed)
        self.images = images
        self._rows: dict[tuple[int, str], tuple[int | tuple[int, int] | None, np.ndarray]] = {}

    def view_image(self, name: str, image: np.ndarray, kernel: int, noise_seed: int) -> np.ndarray:
        """One view of a float (C, H, W) image in [0, 1]; the identity view
        is the image itself."""
        t = self.transforms
        if name == "identity":
            return image
        if name == "foveated":
            return foveate(image, kernel, t.center, t.gamma)
        if name == "noise":
            return add_noise(image, t.noise_sigma, noise_seed)
        if name == "lowres":
            return resample(image, t.scale_low, "bilinear")
        if name == "mosaic":
            return resample(image, t.scale_mosaic, "nearest")
        raise ValueError(f"unknown view {name!r}")

    def features(self, ids, kernels, noise_base: int = 0, epoch: int = 0) -> np.ndarray:
        """(len(ids), views, dim_feature) rows of the samples at their kernels.
        The noise view's seed is derive_noise_seed(noise_base, index, epoch)."""
        ids, kernels = _check_batch(ids, kernels, len(self.images), "has no image")
        ids, kernels = ids.tolist(), kernels.tolist()
        images = [self.images[index] for index in ids]  # each fetched once per call
        blank = [index for index, image in zip(ids, images) if image is None]
        if blank:
            raise ValueError(f"sample index {blank[0]} has no image")
        kinds = {(a.shape, a.dtype) for a in map(np.asarray, images)}
        shapes = sorted({shape for shape, _ in kinds})
        levels = all(dtype == np.uint8 for _, dtype in kinds)
        if len(shapes) > 1 or any(len(shape) != 3 for shape in shapes) or not levels:
            dtypes = sorted({str(dtype) for _, dtype in kinds})
            raise ValueError(f"expected (C, H, W) images of one shape, got shapes {shapes}; "
                             f"expected dtype uint8, got dtypes {dtypes}")
        out = np.empty((len(ids), len(self.view_names), self.encoder.dim))
        misses = []  # (j, view, key) of each row not cached, in batch order
        for j, index in enumerate(ids):
            for v, name in enumerate(self.view_names):
                key = (kernels[j] if name == "foveated" else
                       (noise_base, epoch) if name == "noise" else None)
                cached = self._rows.get((index, name))
                if cached is not None and cached[0] == key:
                    out[j, v] = cached[1]
                else:
                    misses.append((j, v, key))
        pixels = np.empty((shapes or [()])[0])  # the sample being rendered, widened to [0, 1]
        block = np.empty((min(BLOCK, len(misses)), *pixels.shape))
        widened = None
        for start in range(0, len(misses), BLOCK):
            chunk = misses[start : start + BLOCK]
            for b, (j, v, key) in enumerate(chunk):
                if j != widened:  # a sample's misses are adjacent: widen it once
                    np.divide(images[j], 255.0, out=pixels)
                    widened = j
                name = self.view_names[v]
                seed = derive_noise_seed(noise_base, ids[j], epoch) if name == "noise" else None
                block[b] = self.view_image(name, pixels, kernels[j], seed)
            for (j, v, key), row in zip(chunk, self.encoder.encode(block[: len(chunk)])):
                out[j, v] = row
                # a copy, so a cached row does not keep the whole block alive
                self._rows[(ids[j], self.view_names[v])] = (key, row.copy())
        return out


class BankProvider:
    """Replays precomputed rows; pixels are never touched.

    Requests outside the stored level range clamp to the nearest endpoint
    and bump `level_clamps` once per sample so callers can surface the
    mismatch.
    """

    def __init__(self, bank: EmbeddingBank):
        _require_features(bank)
        self.bank = bank
        self.level_clamps = 0

    def features(self, ids, kernels, noise_base: int = 0, epoch: int = 0) -> np.ndarray:
        """(len(ids), views, dim_feature) rows stored at each kernel's level."""
        ids, kernels = _check_batch(ids, kernels, self.bank.sample_count, "outside the bank")
        levels = np.asarray(self.bank.kernel_levels)
        self.level_clamps += int(np.count_nonzero((kernels < levels[0]) | (kernels > levels[-1])))
        # the nearest stored level's column; a tie reads the upper level
        upper = np.minimum(np.searchsorted(levels, kernels), len(levels) - 1)
        lower = np.maximum(upper - 1, 0)
        columns = np.where(kernels - levels[lower] < levels[upper] - kernels, lower, upper)
        return self.bank.features[ids, columns].astype(np.float64)
