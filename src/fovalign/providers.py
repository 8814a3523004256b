"""Feature providers: the frozen image encoder and the embedding bank.

Two interchangeable sources of per-view feature rows feed the fusion
stage. The synthetic provider stands in for a pretrained image encoder:
it average-pools each view onto a fixed 16x16 patch grid, flattens, maps
through a seed-derived random projection and L2-normalizes. The bank
provider replays rows precomputed at a ladder of blur-kernel levels from
a binary embedding-bank file, ignoring pixels entirely.

An embedding bank is a `container` file with magic b"BICP" and version
1. Its header is {tag, sample_count, views, dim_feature, dim_neural,
kernel_levels, labels, splits}; its `<f4` payload holds, per sample, the
(kernel_levels, views, dim_feature) features, levels ascending, then the
dim_neural neural vector. `EmbeddingBank.features` is that features
block for all samples, one (N, levels, views, dim_feature) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TransformConfig, ViewsConfig
from .container import read_container, write_container
from .errors import FormatError, ProtocolError
from .transforms import FoveationParams, add_noise, foveate, resample

__all__ = [
    "POOL_GRID",
    "BANK_MAGIC",
    "derive_noise_seed",
    "SyntheticEncoder",
    "EmbeddingBank",
    "save_embedding_bank",
    "load_embedding_bank",
    "select_kernel_level",
    "SyntheticProvider",
    "BankProvider",
]

POOL_GRID = 16
BANK_MAGIC = b"BICP"
BANK_VERSION = 1


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


class SyntheticEncoder:
    """Deterministic stand-in for a frozen pretrained image encoder.

    encode() = L2-normalize(P @ flatten(avg_pool_16x16(image))) with P a
    fixed Gaussian projection drawn from PCG64 seeded by (seed, channels).
    The map before normalization is linear, so it is Lipschitz in pixel
    space with constant bounded by the projection operator norm (pooling
    is an averaging, hence non-expansive per pixel).
    """

    def __init__(self, dim: int, seed: int):
        if dim < 2:
            raise ValueError(f"feature dimension must be >= 2, got {dim}")
        self.dim = int(dim)
        self.seed = int(seed)
        self._projections: dict[int, np.ndarray] = {}
        self._pool_cache: dict[tuple[int, int], np.ndarray] = {}

    def projection_matrix(self, channels: int) -> np.ndarray:
        if channels not in self._projections:
            rows = POOL_GRID * POOL_GRID * channels
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, channels)))
            self._projections[channels] = rng.standard_normal((rows, self.dim)) / np.sqrt(rows)
        return self._projections[channels]

    def _pool(self, image: np.ndarray) -> np.ndarray:
        _, height, width = image.shape
        for n in (height, width):
            if (n, POOL_GRID) not in self._pool_cache:
                self._pool_cache[(n, POOL_GRID)] = _pool_matrix(n, POOL_GRID).T
        ph = self._pool_cache[(height, POOL_GRID)]
        pw = self._pool_cache[(width, POOL_GRID)]
        # (C, H, W) -> (C, G, G) via the two averaging matrices
        return np.einsum("chw,hg->cgw", image, ph) @ pw

    def project(self, image: np.ndarray) -> np.ndarray:
        """Pre-normalization feature vector (the linear part of encode)."""
        arr = np.asarray(image, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"expected a (C, H, W) image, got shape {arr.shape}")
        pooled = self._pool(arr).reshape(-1)
        return pooled @ self.projection_matrix(arr.shape[0])

    def encode(self, image: np.ndarray) -> np.ndarray:
        z = self.project(image)
        return z / max(float(np.linalg.norm(z)), 1e-12)


@dataclass
class EmbeddingBank:
    """The dataset record: precomputed per-view features at discrete
    kernel levels, plus the paired neural vectors, class labels and split
    tags."""

    tag: str
    views: int
    dim_feature: int
    dim_neural: int
    kernel_levels: list[int]
    features: np.ndarray  # (N, len(kernel_levels), views, dim_feature) float32
    neural: np.ndarray  # (N, dim_neural) float64; the bank file stores float32
    labels: np.ndarray  # (N,) int64
    splits: list[str]  # "train" / "test" per sample

    def __post_init__(self):
        if isinstance(self.features, dict):  # {level: (N, views, dim_feature)} blocks
            self.features = np.stack([self.features[l] for l in self.kernel_levels], axis=1)

    @property
    def sample_count(self) -> int:
        return int(self.neural.shape[0])

    def indices(self, split: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.splits, dtype=str) == split)

    def validate(self) -> "EmbeddingBank":
        n = self.sample_count
        if n < 1:
            raise FormatError("embedding bank holds no samples")
        if self.views < 1 or self.dim_feature < 1 or self.dim_neural < 1:
            raise FormatError("embedding bank dimensions must be >= 1")
        levels = list(self.kernel_levels)
        if not levels or levels != sorted(levels) or len(set(levels)) != len(levels):
            raise FormatError(f"kernel levels must be sorted and unique, got {levels}")
        if any(l < 1 or l % 2 == 0 for l in levels):
            raise FormatError(f"kernel levels must be odd integers >= 1, got {levels}")
        shape = (n, len(levels), self.views, self.dim_feature)
        if self.features.shape != shape:
            raise FormatError(f"features have shape {self.features.shape}, expected {shape}")
        if not np.all(np.isfinite(self.features)):
            raise FormatError("features contain non-finite values")
        if self.neural.shape != (n, self.dim_neural):
            raise FormatError(
                f"neural block has shape {self.neural.shape}, expected {(n, self.dim_neural)}"
            )
        if not np.all(np.isfinite(self.neural)):
            raise FormatError("neural block contains non-finite values")
        if len(self.labels) != n or len(self.splits) != n:
            raise FormatError("labels/splits length does not match the sample count")
        bad = sorted(set(self.splits) - {"train", "test"})
        if bad:
            raise FormatError(f"unknown split tag {bad[0]!r}")
        train_classes = {int(l) for l, s in zip(self.labels, self.splits) if s == "train"}
        test_classes = {int(l) for l, s in zip(self.labels, self.splits) if s == "test"}
        overlap = train_classes & test_classes
        if overlap:
            raise ProtocolError(
                f"train/test class sets overlap (zero-shot protocol): {sorted(overlap)[:5]}"
            )
        return self


def save_embedding_bank(path, bank: EmbeddingBank) -> None:
    bank.validate()
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
    n, width = bank.sample_count, bank.features[0].size
    payload = np.empty((n, width + bank.dim_neural), dtype="<f4")
    payload[:, :width] = bank.features.reshape(n, width)
    payload[:, width:] = bank.neural
    write_container(path, BANK_MAGIC, BANK_VERSION, header, payload)


def _is_int_list(value) -> bool:
    """A JSON list of integers that fit int64."""
    return isinstance(value, list) and all(
        type(v) is int and -(2**63) <= v < 2**63 for v in value
    )


def load_embedding_bank(path) -> EmbeddingBank:
    header, payload = read_container(path, BANK_MAGIC, BANK_VERSION, "bank")
    required = {
        "tag", "sample_count", "views", "dim_feature",
        "dim_neural", "kernel_levels", "labels", "splits",
    }
    if not isinstance(header, dict) or set(header) != required:
        raise FormatError(f"{path}: bank header must hold exactly {sorted(required)}")
    counts = [header[k] for k in ("sample_count", "views", "dim_feature", "dim_neural")]
    # positive counts and at least one level bound every array extent
    # by the payload size, which is checked next
    if not (
        all(type(c) is int and c >= 1 for c in counts)
        and all(_is_int_list(header[k]) for k in ("kernel_levels", "labels"))
        and header["kernel_levels"]
        and isinstance(header["splits"], list)
        and all(isinstance(s, str) for s in header["splits"])
    ):
        raise FormatError(
            f"{path}: bank header needs positive integer counts and "
            f"dimensions, a non-empty integer list of kernel levels, an "
            f"integer list of labels and a list of split names"
        )
    n, views, dim_f, dim_n = counts
    levels = list(header["kernel_levels"])
    width = len(levels) * views * dim_f
    expected_bytes = n * (width + dim_n) * 4
    if len(payload) != expected_bytes:
        raise FormatError(
            f"{path}: payload has {len(payload)} bytes, expected {expected_bytes}"
        )
    flat = np.frombuffer(payload, dtype="<f4").reshape(n, width + dim_n)
    bank = EmbeddingBank(
        tag=str(header["tag"]),
        views=views,
        dim_feature=dim_f,
        dim_neural=dim_n,
        kernel_levels=levels,
        features=flat[:, :width].reshape(n, len(levels), views, dim_f),
        neural=flat[:, width:].astype(np.float64),
        labels=np.asarray(header["labels"], dtype=np.int64),
        splits=list(header["splits"]),
    )
    return bank.validate()


def select_kernel_level(levels, kernels) -> np.ndarray:
    """Nearest stored level to each requested kernel; ties resolve upward."""
    levels = np.sort(np.asarray(levels, dtype=np.int64))
    if len(levels) == 0:
        raise ValueError("no kernel levels to select from")
    kernels = np.asarray(kernels, dtype=np.int64)
    upper = np.minimum(np.searchsorted(levels, kernels), len(levels) - 1)
    lower = levels[np.maximum(upper - 1, 0)]
    upper = levels[upper]
    return np.where(kernels - lower < upper - kernels, lower, upper)


class SyntheticProvider:
    """Builds the enabled views of its samples' images and encodes them.
    An image may be None, a sample whose pixmap was not read; asking for
    its rows raises ValueError.

    Each (index, view) keeps its last row under a key: the kernel for the
    foveated view, the noise seed for the noise view and a constant for
    the others. A repeat request reuses the row and a new key replaces it,
    so the cache holds at most one row per (index, view).
    """

    def __init__(self, transforms: TransformConfig, views: ViewsConfig, dim: int, seed: int,
                 images):
        if views.count < 1:
            raise ValueError("at least one view must be enabled")
        self.transforms = transforms
        self.view_names = views.enabled()
        self.encoder = SyntheticEncoder(dim, seed)
        self.images = images
        self._rows: dict[tuple[int, str], tuple[int | None, np.ndarray]] = {}

    @property
    def views(self) -> int:
        return len(self.view_names)

    @property
    def dim_feature(self) -> int:
        return self.encoder.dim

    def view_image(self, name: str, image: np.ndarray, kernel: int, noise_seed: int) -> np.ndarray:
        t = self.transforms
        if name == "identity":
            return image
        if name == "foveated":
            return foveate(image, FoveationParams(t.center, t.gamma, kernel))
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
        blank = [index for index in ids.tolist() if self.images[index] is None]
        if blank:
            raise ValueError(f"sample index {blank[0]} has no image")
        noisy = "noise" in self.view_names
        out = np.empty((len(ids), self.views, self.dim_feature))
        for j, (index, kernel) in enumerate(zip(ids.tolist(), kernels.tolist())):
            seed = derive_noise_seed(noise_base, index, epoch) if noisy else 0
            for v, name in enumerate(self.view_names):
                key = kernel if name == "foveated" else seed if name == "noise" else None
                cached = self._rows.get((index, name))
                if cached is None or cached[0] != key:
                    image = self.images[index]
                    cached = (key, self.encoder.encode(self.view_image(name, image, kernel, seed)))
                    self._rows[(index, name)] = cached
                out[j, v] = cached[1]
        return out


class BankProvider:
    """Replays precomputed rows; pixels are never touched.

    Requests outside the stored level range clamp to the nearest endpoint
    and bump `level_clamps` once per sample so callers can surface the
    mismatch.
    """

    def __init__(self, bank: EmbeddingBank):
        self.bank = bank
        self.level_clamps = 0

    @property
    def views(self) -> int:
        return self.bank.views

    @property
    def dim_feature(self) -> int:
        return self.bank.dim_feature

    def features(self, ids, kernels, noise_base: int = 0, epoch: int = 0) -> np.ndarray:
        """(len(ids), views, dim_feature) rows stored at each kernel's level."""
        ids, kernels = _check_batch(ids, kernels, self.bank.sample_count, "outside the bank")
        levels = self.bank.kernel_levels
        self.level_clamps += int(np.count_nonzero((kernels < levels[0]) | (kernels > levels[-1])))
        columns = np.searchsorted(levels, select_kernel_level(levels, kernels))
        return self.bank.features[ids, columns].astype(np.float64)
