"""Zero-shot retrieval metrics over a query/gallery similarity matrix.

`nway_reports` ranks it as consecutive blocks of query rows and is the one
place its inputs are checked; `nway_evaluate` gives it one whole block.
Queries index rows, gallery items columns; `truth` maps each query to its
one relevant column. Ties break by the lower gallery index (a stable
descending sort), so every metric is exactly reproducible by brute force.
Each block is compared with its truths once, into a bool `beats` mask of
the columns that outrank each query's truth. Each trial's draws for a
block fill one int64 array, no larger than the block, counted in `beats`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import _UNIT, parse_record
from .errors import ConfigError

__all__ = ["EvalReport", "nway_reports", "nway_evaluate"]


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


def _beats(sim: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Bool mask: beats[q, j] when column j outranks row q's truth, by a
    higher similarity or an equal one at a lower gallery index."""
    true_scores = np.take_along_axis(sim, truth[:, None], axis=1)
    beats = sim > true_scores
    beats |= (sim == true_scores) & (np.arange(sim.shape[1]) < truth[:, None])
    return beats


def _ranks_among_draws(beats: np.ndarray, truth: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Rank of each row's truth among itself and its drawn distractors: 1 +
    the drawn columns that beat it. `draws` holds, per row, distinct indices
    into the gallery without the truth column; each is shifted past the
    truth to give a gallery column."""
    others = draws + (draws >= truth[:, None])
    return 1 + np.take_along_axis(beats, others, axis=1).sum(axis=1)


def _trial_ranks(beats: np.ndarray, truth: np.ndarray, n: int, rng) -> np.ndarray:
    """Each query's rank among its truth and n - 1 distractors drawn by
    `rng`, one draw per query in order, or among every other gallery column
    when `rng` is None. The draws fill one int64 array per block and trial,
    never larger than the float64 similarity block they rank."""
    if rng is None:
        return 1 + beats.sum(axis=1)
    draws = np.empty((len(truth), n - 1), dtype=np.int64)
    for row in draws:
        row[:] = rng.choice(beats.shape[1] - 1, size=n - 1, replace=False)
    return _ranks_among_draws(beats, truth, draws)


def nway_reports(blocks, truth, sizes, trials: int, seed: int) -> list[EvalReport]:
    """Retrieval metrics averaged over seeded n-way galleries, one report
    per gallery size in `sizes`, from a similarity matrix given as
    `blocks`: consecutive `(rows, gallery)` arrays whose rows, in order,
    are the queries of `truth`. One block is held at a time.

    Per trial, each query faces its true item plus n - 1 distractors
    drawn without replacement from the rest of the gallery by PCG64
    seeded with (seed, trial). Each trial's generator is made before the
    first block and kept across blocks, so every query gets the draw of
    one pass over the whole matrix. When n is the gallery size every
    other column is a distractor whatever the draw, so each query is
    ranked once, with no generator, and the report does not depend on
    `seed`. Top-5 uses k = min(5, n). The ranks fill a (trials, queries)
    table per size (one row for the full gallery). After the last block
    each row's means are taken once and summed over the trials, so the
    reports keep their bits however the matrix is split. The similarity
    score is the mean diagonal of a square matrix, and None otherwise.
    """
    # NumPy integers read as ints, and a non-integer fails before any block
    sizes = [operator.index(n) for n in sizes]
    trials, seed = operator.index(trials), operator.index(seed)
    t = np.asarray(truth, dtype=np.int64)
    if t.ndim != 1 or len(t) < 1:
        raise ValueError(f"expected a vector of truth indices, got shape {t.shape}")
    n_gallery = stop = 0
    for block in blocks:
        sim = np.asarray(block, dtype=np.float64)
        if sim.ndim != 2 or min(sim.shape) < 1 or n_gallery not in (0, sim.shape[1]):
            raise ValueError(f"expected a (queries, {n_gallery or 'gallery'}) block of "
                             f"similarities, got shape {sim.shape}")
        start, stop = stop, stop + sim.shape[0]
        if stop > len(t):
            raise ValueError(f"truth shape {t.shape} does not match {stop} or more queries")
        if not n_gallery:  # the first block sets the gallery
            n_gallery = sim.shape[1]
            tables = _rank_tables(t, n_gallery, sizes, trials, seed)
            diagonal = np.empty(len(t)) if len(t) == n_gallery else None
        beats = _beats(sim, t[start:stop])
        for n, table, rngs in tables:
            for row, rng in zip(table, rngs):
                row[start:stop] = _trial_ranks(beats, t[start:stop], n, rng)
        if diagonal is not None:
            diagonal[start:stop] = np.diagonal(sim, offset=start)
        del block, sim, beats  # let go of this block before the next one is made
    if stop != len(t):
        raise ValueError(f"truth shape {t.shape} does not match {stop} queries")
    reports = []
    for n, table, _ in tables:
        k5 = min(5, n)
        means = [((ranks <= 1).mean(), (ranks <= k5).mean(), (1.0 / ranks).mean())
                 for ranks in table]
        top1_sum = top5_sum = ap_sum = 0.0
        # one sum per trial, in trial order, so the means keep the bits of
        # a per-trial loop; a full-gallery table's one row serves every trial
        for trial in range(trials):
            top1, top5, ap = means[trial % len(means)]
            top1_sum += top1
            top5_sum += top5
            ap_sum += ap
        reports.append(EvalReport(
            gallery_size=n, trials=trials, seed=seed, top1=top1_sum / trials,
            top5=top5_sum / trials, mean_ap=ap_sum / trials,
            similarity=None if diagonal is None else float(np.mean(diagonal)),
        ))
    return reports


def _rank_tables(truth: np.ndarray, n_gallery: int, sizes, trials: int, seed: int) -> list:
    """(n, rank table, generator per table row) for each gallery size n."""
    if np.any(truth < 0) or np.any(truth >= n_gallery):
        raise ValueError("truth indices outside the gallery")
    tables = []
    for n in sizes:
        if n > n_gallery:
            raise ConfigError(f"gallery size n={n} exceeds the test set size {n_gallery}")
        if n < 1:
            raise ConfigError(f"gallery size n must be >= 1, got {n}")
        if trials < 1:
            raise ConfigError(f"trials must be >= 1, got {trials}")
        rngs = [None] if n == n_gallery else [
            np.random.default_rng(np.random.SeedSequence((seed, trial))) for trial in range(trials)
        ]
        tables.append((n, np.empty((len(rngs), len(truth)), dtype=np.int64), rngs))
    return tables


def nway_evaluate(similarity: np.ndarray, truth, n: int, trials: int, seed: int) -> EvalReport:
    """`nway_reports` for the one gallery size n, with the whole similarity
    matrix as its one block: its checks and messages are that path's own."""
    return nway_reports([similarity], truth, [n], trials, seed)[0]
