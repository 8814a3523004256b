"""Symmetric contrastive alignment between neural and fused visual features.

The loss is the symmetric InfoNCE over cosine similarities:

    Z = cos(F_N, F_latent) / tau
    loss = (CE(rows of Z, diagonal) + CE(rows of Z^T, diagonal)) / 2

tau is trained in log-space and clamped to [temperature_min,
temperature_max] after every optimizer step. Each pairwise dot (and
each squared row norm) sums its elementwise products in one fixed order
that does not depend on which matrix comes first: the products
a_i * b_j and b_j * a_i are the same floating-point numbers, and each
contiguous row of them is reduced by the same NumPy sum. That makes
cos(A, B) the bit-exact transpose of cos(B, A); swapping the two
modalities therefore reproduces the identical loss value, not merely an
approximately equal one.

All gradients are analytic (see `loss_and_gradients`); the optimizer is
AdamW with decoupled weight decay applied to weight matrices only.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass

import numpy as np

from . import fusion, nn
from .config import RunConfig
from .errors import ConfigError, NumericError
from .providers import EmbeddingBank
from .regulator import BlurSchedule, confidence_bounds

__all__ = [
    "cosine_similarity_matrix",
    "loss_and_gradients",
    "AdamW",
    "EpochReport",
    "Trainer",
    "init_parameters",
    "encode_pairs",
]

NORM_FLOOR = 1e-12


# elements in one block of products: 2**19 float64 values, 4 MiB
DOT_BLOCK_ELEMS = 1 << 19


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise dot products, each summed in one fixed order.

    The products of a row pair form one contiguous row that NumPy sums
    in the same order whichever argument comes first, so
    `_dots(a, b) == _dots(b, a).T` bit for bit. Rows of `a` are taken in
    blocks so the product temporary stays within DOT_BLOCK_ELEMS.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    rows = max(1, DOT_BLOCK_ELEMS // max(1, b.shape[0] * b.shape[1]))
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        out[start : start + rows] = (block[:, None, :] * b[None, :, :]).sum(axis=-1)
    return out


def _norms(a: np.ndarray) -> np.ndarray:
    """Row norms floored at NORM_FLOOR, summed as `_dots` sums a row with itself."""
    return np.maximum(np.sqrt((a * a).sum(axis=-1)), NORM_FLOOR)


def _cosine(a: np.ndarray, b: np.ndarray):
    """Return (cos, na, nb): the cosine matrix and the floored row norms."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"incompatible feature shapes {a.shape} and {b.shape}")
    na = _norms(a)
    nb = _norms(b)
    return _dots(a, b) / (na[:, None] * nb[None, :]), na, nb


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities with norms floored at NORM_FLOOR."""
    return _cosine(a, b)[0]


def _row_cross_entropy(z: np.ndarray) -> float:
    """Mean over rows of -log softmax(z_i)[i] (diagonal targets)."""
    z = np.ascontiguousarray(z)
    shift = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - shift).sum(axis=1)) + shift[:, 0]
    return float(np.mean(lse - np.diagonal(z)))


def loss_and_gradients(f_n: np.ndarray, f_latent: np.ndarray, log_tau: float):
    """The symmetric InfoNCE loss plus analytic gradients wrt both feature
    matrices and log(tau), where logits = cos(f_n, f_latent) / tau.

    Requires a square batch of at least two pairs, the i-th row of each
    matrix the positive partner of the i-th row of the other, and a
    positive finite tau. Returns (loss, logits, d_f_n, d_f_latent, d_log_tau).
    """
    f_n = np.asarray(f_n, dtype=np.float64)
    f_latent = np.asarray(f_latent, dtype=np.float64)
    if f_n.shape != f_latent.shape:
        raise ValueError(f"feature shapes differ: {f_n.shape} vs {f_latent.shape}")
    if f_n.shape[0] < 2:
        raise ValueError(f"contrastive batch needs >= 2 pairs, got {f_n.shape[0]}")
    tau = math.exp(float(log_tau))
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    cos, na, nb = _cosine(f_n, f_latent)
    logits = cos / tau
    loss = 0.5 * (_row_cross_entropy(logits) + _row_cross_entropy(logits.T))

    batch = f_n.shape[0]
    eye = np.eye(batch)
    p_row = nn.softmax(logits, axis=1)
    p_col = nn.softmax(logits, axis=0)
    d_logits = ((p_row - eye) + (p_col - eye)) / (2.0 * batch)
    d_log_tau = -float(np.sum(d_logits * logits))

    d_cos = d_logits / tau
    u = f_n / na[:, None]
    v = f_latent / nb[:, None]
    # below the norm floor the normalizer is constant, so the radial
    # correction term disappears
    live_a = (na > NORM_FLOOR).astype(np.float64)[:, None]
    live_b = (nb > NORM_FLOOR).astype(np.float64)[:, None]
    row_dot = np.sum(d_cos * cos, axis=1, keepdims=True)
    col_dot = np.sum(d_cos * cos, axis=0)[:, None]
    d_f_n = (d_cos @ v - live_a * u * row_dot) / na[:, None]
    d_f_latent = (d_cos.T @ u - live_b * v * col_dot) / nb[:, None]
    return loss, logits, d_f_n, d_f_latent, d_log_tau


class AdamW:
    """Adam with decoupled weight decay. Decay touches only weight
    matrices (ndim >= 2); vectors, gains and the temperature are exempt.

    Parameters, gradients and both moments are each one contiguous float64
    buffer, the weight matrices first and every group in sorted-name order
    within its kind, so a step is a few in-place whole-buffer operations and
    the decay one slice. Each is the per-group arithmetic of the textbook
    update, element for element, so the results are the same bits. The
    constructor copies `params` into the buffer and leaves the dict alone;
    `self.params` maps each name to a view of the buffer. It is read-only:
    rebinding an entry raises TypeError, writing into a view in place works.
    """

    def __init__(self, params: dict, lr: float, beta1: float, beta2: float,
                 eps: float, weight_decay: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        names = sorted(params, key=lambda k: (np.ndim(params[k]) < 2, k))
        shapes = {k: np.shape(params[k]) for k in names}
        sizes = [math.prod(shapes[k]) for k in names]
        self._n_decayed = sum(n for k, n in zip(names, sizes) if len(shapes[k]) >= 2)
        total = sum(sizes)
        self.params_flat = np.empty(total)
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self._grads = np.empty(total)  # the gradients in, then the update
        self._scratch = np.empty(total)
        views = {}
        start = 0
        for name, size in zip(names, sizes):
            views[name] = self.params_flat[start : start + size].reshape(shapes[name])
            views[name][...] = params[name]
            start += size
        self.params = types.MappingProxyType(views)

    def step(self, grads: dict) -> None:
        np.concatenate([np.ravel(grads[name]) for name in self.params], out=self._grads)
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        p, g, m, v, scratch = self.params_flat, self._grads, self.m, self.v, self._scratch
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=scratch)
        # v = beta2 * v + (1 - beta2) * (g * g)
        v *= self.beta2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - self.beta2
        v += scratch
        # update = (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        update = np.divide(m, bias1, out=g)  # g is not read again
        update /= scratch
        if self.weight_decay:
            k = self._n_decayed
            update[:k] += np.multiply(p[:k], self.weight_decay, out=scratch[:k])
        # p = p - lr * update
        update *= self.lr
        p -= update


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    loss: float
    mean_smoothed_sim: float
    kernel_min: int
    kernel_mean: float
    kernel_max: int
    t_lower: float
    t_upper: float
    kernel_hist: dict[int, int]


def init_parameters(config: RunConfig, dim_neural: int) -> dict[str, np.ndarray]:
    """All trainable arrays: fusion stack, neural-side affine encoder and
    the log-temperature, drawn in a fixed order from one seeded stream."""
    rng = np.random.default_rng(np.random.SeedSequence((config.training.seed, 0)))
    params = fusion.init_fusion_params(config.fusion, config.provider.dim_feature, rng)
    params["enc_w"] = rng.standard_normal((dim_neural, config.fusion.dim_latent)) / np.sqrt(dim_neural)
    params["enc_b"] = np.zeros(config.fusion.dim_latent)
    params["log_tau"] = np.array(math.log(config.training.temperature_init))
    return params


def _json_number(x: float) -> float | str:
    """x itself if finite, else its repr, which strict JSON can carry."""
    return x if math.isfinite(x) else repr(x)


class Trainer:
    """Owns parameters, optimizer state and the blur schedule for one
    training run."""

    def __init__(self, config: RunConfig, bank: EmbeddingBank, provider):
        self.config = config
        self.bank = bank
        self.provider = provider
        self.train_ids = bank.indices("train")
        if len(self.train_ids) < config.training.batch_size:
            raise ConfigError(
                f"training needs at least one full batch: "
                f"{len(self.train_ids)} samples < batch_size {config.training.batch_size}"
            )
        tr = config.training
        self.optimizer = AdamW(
            init_parameters(config, bank.dim_neural), lr=tr.learning_rate, beta1=tr.adam_beta1,
            beta2=tr.adam_beta2, eps=tr.adam_eps, weight_decay=tr.weight_decay,
        )
        self.params = self.optimizer.params
        self.schedule = BlurSchedule(
            sample_ids=self.train_ids,
            kernel_init=config.transforms.kernel_size,
            momentum=config.regulator.momentum,
            step=config.transforms.perturbation,
            kernel_min=config.regulator.kernel_min,
            kernel_max=config.kernel_max,
        )
        self._shuffle_rng = np.random.default_rng(
            np.random.SeedSequence((tr.seed, 1))
        )
        self.reports: list[EpochReport] = []

    def _regulation_active(self, epoch: int) -> bool:
        return (
            self.config.regulator.enabled
            and self.config.views.foveated
            and epoch >= self.config.regulator.start_epoch
        )

    def train_epoch(self, epoch: int) -> EpochReport:
        cfg = self.config
        batch_size = cfg.training.batch_size
        order = self._shuffle_rng.permutation(self.train_ids)
        n_batches = len(order) // batch_size  # the trailing partial batch is dropped
        losses, lowers, uppers = [], [], []
        for b in range(n_batches):
            ids = order[b * batch_size : (b + 1) * batch_size]
            feats = self.provider.features(
                ids, self.schedule.kernels_of(ids), cfg.training.seed, epoch
            )
            dropout_rng = np.random.default_rng(
                np.random.SeedSequence((cfg.training.seed, 2, epoch, b))
            )
            try:
                latent, cache = fusion.fusion_forward(feats, self.params, cfg.fusion, dropout_rng)
            except ValueError as exc:
                # huge but finite parameters pass the post-step check and
                # can still make the evidence NaN here
                raise NumericError(
                    f"fusion forward failed at epoch {epoch}, batch {b}: {exc}",
                    state=self.diagnostics(epoch, b, math.nan),
                ) from exc
            neural_in = self.bank.neural[ids]
            f_n = nn.affine_forward(neural_in, self.params["enc_w"], self.params["enc_b"])
            loss, logits, d_f_n, d_latent, d_log_tau = loss_and_gradients(
                f_n, latent, float(self.params["log_tau"])
            )
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {b}",
                    state=self.diagnostics(epoch, b, loss),
                )
            grads = fusion.fusion_backward(d_latent, cache, self.params, cfg.fusion)
            _, grads["enc_w"], grads["enc_b"] = nn.affine_backward(
                d_f_n, neural_in, self.params["enc_w"]
            )
            grads["log_tau"] = np.array(d_log_tau)
            self.optimizer.step(grads)
            # in place: the entry is a view of the optimizer's buffer
            np.clip(
                self.params["log_tau"],
                math.log(cfg.training.temperature_min),
                math.log(cfg.training.temperature_max),
                out=self.params["log_tau"],
            )
            # AdamW carries a non-finite gradient into its parameter (NaN
            # directly, inf as inf / inf), so one sum over the post-step
            # parameter buffer checks both
            if not math.isfinite(self.optimizer.params_flat.sum()):
                self._raise_first_non_finite(epoch, b, loss, grads)
            smoothed = self.schedule.update_smoothed(ids, np.diagonal(logits))
            lower, upper = confidence_bounds(smoothed, cfg.regulator.z_value)
            if self._regulation_active(epoch):
                self.schedule.update_kernels(ids, (lower, upper))
            losses.append(loss)
            lowers.append(lower)
            uppers.append(upper)
        kernels = self.schedule.kernels_of(self.train_ids)
        report = EpochReport(
            epoch=epoch,
            loss=float(np.mean(losses)),
            mean_smoothed_sim=self.schedule.mean_smoothed(),
            kernel_min=int(kernels.min()),
            kernel_mean=float(kernels.mean()),
            kernel_max=int(kernels.max()),
            t_lower=float(np.mean(lowers)),
            t_upper=float(np.mean(uppers)),
            kernel_hist=self.schedule.kernel_histogram(),
        )
        self.reports.append(report)
        return report

    def train(self) -> list[EpochReport]:
        for epoch in range(self.config.training.epochs):
            self.train_epoch(epoch)
        return self.reports

    def _raise_first_non_finite(self, epoch: int, batch: int, loss: float, grads: dict) -> None:
        """NumericError naming the first non-finite gradient group, else the
        first non-finite parameter group, in sorted order. Returns when every
        group is finite (the sum overflowed on finite values)."""
        for kind, groups in (("gradient", grads), ("parameter", self.params)):
            for name in sorted(groups):
                if not np.all(np.isfinite(groups[name])):
                    state = self.diagnostics(epoch, batch, loss)
                    state["non_finite"] = {"kind": kind, "group": name}
                    raise NumericError(
                        f"non-finite {kind} of {name} at epoch {epoch}, batch {batch}",
                        state=state,
                    )

    def diagnostics(self, epoch: int, batch: int, loss: float) -> dict:
        return {
            "epoch": epoch,
            "batch": batch,
            "loss": repr(loss),
            "temperature": _json_number(math.exp(float(self.params["log_tau"]))),
            "param_norms": {
                k: _json_number(float(np.linalg.norm(p))) for k, p in sorted(self.params.items())
            },
            "kernel_hist": {str(k): v for k, v in self.schedule.kernel_histogram().items()},
        }


def encode_pairs(config: RunConfig, bank: EmbeddingBank, provider, params: dict, indices):
    """Deterministic eval-mode embeddings for the given samples.

    Returns (f_n, f_latent). Views are built at transforms.kernel_size;
    the noise view derives its seed from (evaluation.seed, sample_index, 0).
    """
    kernels = [config.transforms.kernel_size] * len(indices)
    feats = provider.features(indices, kernels, config.evaluation.seed, 0)
    latent, _ = fusion.fusion_forward(feats, params, config.fusion)
    f_n = nn.affine_forward(
        bank.neural[np.asarray(indices, dtype=np.int64)], params["enc_w"], params["enc_b"]
    )
    return f_n, latent
