"""Feedback control of the foveal blur kernel.

Each tracked sample carries a momentum-smoothed alignment score and a
blur kernel size. Per batch the trainer feeds the diagonal logits in,
confidence bounds are formed over the batch's smoothed scores, and each
kernel moves one even step against its score: confidently high scores
shrink the kernel (harder views), confidently low scores grow it.

    smoothed <- momentum * score + (1 - momentum) * previous
    bounds    = mean +- z * population_std        (per batch)
    kernel    = kernel - step   if smoothed > upper
              = kernel + step   if smoothed < lower   (ties leave it)

Kernels clamp to [kernel_min, kernel_max]; with odd bounds, an odd start
and an even step they stay odd forever.
"""

from __future__ import annotations

import numpy as np

__all__ = ["confidence_bounds", "BlurSchedule"]


def confidence_bounds(smoothed_batch: np.ndarray, z: float) -> tuple[float, float]:
    """Normal-approximation bounds mean +- z * sigma (population sigma);
    a single value has sigma 0, so its bounds are (mean, mean)."""
    values = np.asarray(smoothed_batch, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"need a non-empty 1-D batch, got shape {values.shape}")
    if not np.isfinite(z) or z < 0:
        raise ValueError(f"z must be a non-negative real, got {z}")
    mean = float(values.mean())
    sigma = float(values.std())  # ddof=0: population standard deviation
    return mean - z * sigma, mean + z * sigma


class BlurSchedule:
    """Per-sample smoothed scores and kernel sizes for a fixed id set."""

    def __init__(
        self,
        sample_ids,
        kernel_init: int,
        momentum: float,
        step: int,
        kernel_min: int,
        kernel_max: int,
    ):
        ids = [int(i) for i in sample_ids]
        if len(ids) == 0:
            raise ValueError("the schedule needs at least one sample id")
        if len(set(ids)) != len(ids):
            raise ValueError("sample ids must be unique")
        for name, k in (("kernel_init", kernel_init), ("kernel_min", kernel_min),
                        ("kernel_max", kernel_max)):
            if k < 1 or k % 2 == 0:
                raise ValueError(f"{name} must be an odd integer >= 1, got {k}")
        if not kernel_min <= kernel_init <= kernel_max:
            raise ValueError(
                f"kernel_init {kernel_init} outside [{kernel_min}, {kernel_max}]"
            )
        if step < 2 or step % 2 != 0:
            raise ValueError(f"step must be an even positive integer, got {step}")
        if not 0.0 <= momentum <= 1.0:
            raise ValueError(f"momentum must lie in [0, 1], got {momentum}")
        self.momentum = float(momentum)
        self.step = int(step)
        self.kernel_min = int(kernel_min)
        self.kernel_max = int(kernel_max)
        self._slot = {sid: i for i, sid in enumerate(ids)}
        n = len(ids)
        self._smoothed = np.zeros(n)
        self._seen = np.zeros(n, dtype=bool)
        self._kernels = np.full(n, int(kernel_init), dtype=np.int64)

    def _slots(self, sample_ids) -> np.ndarray:
        try:
            return np.asarray([self._slot[int(i)] for i in sample_ids], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unknown sample id {exc.args[0]}") from exc

    def update_smoothed(self, sample_ids, scores) -> np.ndarray:
        """Fold a batch of raw scores into the per-sample smoothed values.

        First observation of a sample initializes its smoothed value to
        the raw score; afterwards the momentum rule applies. Returns the
        batch's updated smoothed values.
        """
        slots = self._slots(sample_ids)
        if len(set(slots.tolist())) != len(slots):
            raise ValueError("duplicate sample ids in one batch")
        values = np.asarray(scores, dtype=np.float64)
        if values.shape != slots.shape:
            raise ValueError(f"got {values.shape} scores for {slots.shape} ids")
        if not np.all(np.isfinite(values)):
            raise ValueError("scores must be finite")
        prev = self._smoothed[slots]
        blended = self.momentum * values + (1.0 - self.momentum) * prev
        updated = np.where(self._seen[slots], blended, values)
        self._smoothed[slots] = updated
        self._seen[slots] = True
        return updated.copy()

    def kernels_of(self, sample_ids) -> np.ndarray:
        return self._kernels[self._slots(sample_ids)].copy()

    def update_kernels(self, sample_ids, bounds: tuple[float, float]) -> np.ndarray:
        """Move each sample's kernel one step against its smoothed score.

        Strictly above the upper bound shrinks, strictly below the lower
        bound grows, anything else (ties included) keeps the kernel.
        Returns the batch's updated kernels.
        """
        lower, upper = float(bounds[0]), float(bounds[1])
        if not (np.isfinite(lower) and np.isfinite(upper)) or lower > upper:
            raise ValueError(f"bad bounds ({lower}, {upper})")
        slots = self._slots(sample_ids)
        if not np.all(self._seen[slots]):
            raise ValueError("kernel update before any smoothed observation")
        smoothed = self._smoothed[slots]
        kernels = self._kernels[slots]
        moved = np.where(
            smoothed > upper, kernels - self.step,
            np.where(smoothed < lower, kernels + self.step, kernels),
        )
        clamped = np.clip(moved, self.kernel_min, self.kernel_max)
        self._kernels[slots] = clamped
        return clamped.copy()

    def mean_smoothed(self) -> float:
        """Mean smoothed score over the samples observed so far (0 if none)."""
        if not self._seen.any():
            return 0.0
        return float(self._smoothed[self._seen].mean())

    def kernel_histogram(self) -> dict[int, int]:
        values, counts = np.unique(self._kernels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}
