"""Zero-shot retrieval metrics over a query/gallery similarity matrix.

Queries index rows, gallery items columns; `truth` maps each query to its
single relevant gallery column. Ranks break similarity ties by the lower
gallery index (a stable descending sort), so every metric is exactly
reproducible and has a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import _UNIT, parse_record
from .errors import ConfigError

__all__ = ["similarity_score", "EvalReport", "nway_evaluate"]


def _check_matrix(similarity: np.ndarray, truth) -> tuple[np.ndarray, np.ndarray]:
    sim = np.asarray(similarity, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] < 1 or sim.shape[1] < 1:
        raise ValueError(f"expected a (queries, gallery) matrix, got shape {sim.shape}")
    t = np.asarray(truth, dtype=np.int64)
    if t.shape != (sim.shape[0],):
        raise ValueError(f"truth shape {t.shape} does not match {sim.shape[0]} queries")
    if np.any(t < 0) or np.any(t >= sim.shape[1]):
        raise ValueError("truth indices outside the gallery")
    return sim, t


def similarity_score(similarity: np.ndarray) -> float:
    """Mean diagonal similarity of a square pairing matrix."""
    sim = np.asarray(similarity, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ValueError(f"similarity score needs a square matrix, got {sim.shape}")
    return float(np.mean(np.diagonal(sim)))


@dataclass(frozen=True)
class EvalReport:
    gallery_size: int
    trials: int
    seed: int
    top1: Annotated[float, _UNIT]
    top5: Annotated[float, _UNIT]
    mean_ap: Annotated[float, _UNIT]
    similarity: float | None  # None unless the matrix is square

    def __post_init__(self):
        parse_record(EvalReport, self, "", ValueError)


# most distractor draws ranked at once; bounds the per-block temporaries
RANK_BLOCK_DRAWS = 1 << 15


def _ranks_among_draws(sim: np.ndarray, truth: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Rank of each row's truth among itself and its drawn distractors.

    `draws` holds, per row, distinct indices into the gallery without the
    truth column; each is shifted past the truth to give a gallery column.
    Over those columns j, rank = 1 + |{j : s_j > s_true}| +
    |{j < true : s_j == s_true}|: ties go to the lower gallery index.
    """
    others = draws + (draws >= truth[:, None])
    scores = np.take_along_axis(sim, others, axis=1)
    true_scores = np.take_along_axis(sim, truth[:, None], axis=1)
    higher = (scores > true_scores).sum(axis=1)
    tied_before = ((scores == true_scores) & (others < truth[:, None])).sum(axis=1)
    return 1 + higher + tied_before


def _trial_ranks(sim: np.ndarray, truth: np.ndarray, n: int, rng) -> np.ndarray:
    """Each query's rank among its truth and n - 1 distractors drawn by
    `rng`, one draw per query in order, or among every other gallery column
    when `rng` is None. Queries are ranked in blocks of at most
    RANK_BLOCK_DRAWS distractors."""
    n_queries, n_gallery = sim.shape
    rows = max(1, RANK_BLOCK_DRAWS // max(1, n - 1))
    ranks = np.empty(n_queries, dtype=np.int64)
    for start in range(0, n_queries, rows):
        stop = min(start + rows, n_queries)
        if rng is None:
            draws = np.broadcast_to(np.arange(n - 1), (stop - start, n - 1))
        else:
            draws = np.stack([
                rng.choice(n_gallery - 1, size=n - 1, replace=False)
                for _ in range(start, stop)
            ])
        ranks[start:stop] = _ranks_among_draws(sim[start:stop], truth[start:stop], draws)
    return ranks


def nway_evaluate(
    similarity: np.ndarray, truth, n: int, trials: int, seed: int
) -> EvalReport:
    """Average retrieval metrics over seeded n-way galleries.

    Per trial, each query faces its true item plus n - 1 distractors
    sampled without replacement from the remaining gallery (PCG64 seeded
    by (seed, trial)). When n is the gallery size every other column is a
    distractor whatever the draw, so each query is ranked once, with no
    generator, and the report does not depend on `seed`. Top-5 uses
    k = min(5, n). The similarity score is the mean diagonal of the full
    matrix and does not depend on trials.
    """
    sim, t = _check_matrix(similarity, truth)
    n_gallery = sim.shape[1]
    if n > n_gallery:
        raise ConfigError(f"gallery size n={n} exceeds the test set size {n_gallery}")
    if n < 1:
        raise ConfigError(f"gallery size n must be >= 1, got {n}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    k5 = min(5, n)
    full = n == n_gallery
    ranks = _trial_ranks(sim, t, n, None) if full else None
    top1_sum = top5_sum = ap_sum = 0.0
    for trial in range(trials):
        if not full:
            rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
            ranks = _trial_ranks(sim, t, n, rng)
        # one sum per trial, as many trials as asked, so the means keep
        # the bits of the per-trial loop
        top1_sum += (ranks <= 1).mean()
        top5_sum += (ranks <= k5).mean()
        ap_sum += (1.0 / ranks).mean()
    return EvalReport(
        gallery_size=n,
        trials=trials,
        seed=seed,
        top1=top1_sum / trials,
        top5=top5_sum / trials,
        mean_ap=ap_sum / trials,
        similarity=similarity_score(sim) if sim.shape[0] == sim.shape[1] else None,
    )
