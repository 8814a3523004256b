"""Retrieval metrics against brute-force oracles."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import every_other_column
from fovalign.errors import ConfigError
from fovalign.evaluation import (
    EvalReport, _beats, _ranks_among_draws, _trial_ranks, nway_evaluate, nway_reports,
)


def oracle_rank(scores, true_index):
    """Stable descending sort: ties broken by the lower gallery index."""
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return 1 + order.index(true_index)


def full_gallery_ranks(sim, truth):
    """`_ranks_among_draws` with every other gallery column drawn, shuffled."""
    sim = np.asarray(sim, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    draws = every_other_column(np.random.default_rng(0), *sim.shape)
    return _ranks_among_draws(_beats(sim, truth), truth, draws)


def loop_nway_evaluate(similarity, truth, n, trials, seed):
    """Per-query reference for `nway_evaluate`: the same seeded draws, each
    query's candidates sorted and its truth found by binary search."""
    sim = np.asarray(similarity, dtype=np.float64)
    t = np.asarray(truth, dtype=np.int64)
    n_gallery = sim.shape[1]
    k5 = min(5, n)
    top1_sum = top5_sum = ap_sum = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
        hits1 = np.empty(sim.shape[0])
        hits5 = np.empty(sim.shape[0])
        aps = np.empty(sim.shape[0])
        for q in range(sim.shape[0]):
            others = rng.choice(n_gallery - 1, size=n - 1, replace=False)
            others = np.where(others >= t[q], others + 1, others)
            candidates = np.sort(np.concatenate(([t[q]], others)))
            scores = sim[q, candidates]
            true_pos = int(np.searchsorted(candidates, t[q]))
            true_score = scores[true_pos]
            rank = (
                1
                + int((scores > true_score).sum())
                + int(((scores == true_score) & (candidates < t[q])).sum())
            )
            hits1[q] = rank <= 1
            hits5[q] = rank <= k5
            aps[q] = 1.0 / rank
        top1_sum += hits1.mean()
        top5_sum += hits5.mean()
        ap_sum += aps.mean()
    return EvalReport(
        gallery_size=n,
        trials=trials,
        seed=seed,
        top1=top1_sum / trials,
        top5=top5_sum / trials,
        mean_ap=ap_sum / trials,
        similarity=float(np.mean(np.diagonal(sim))) if sim.shape[0] == sim.shape[1] else None,
    )


class TestRanks:
    def test_matches_sort_oracle_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sim = rng.standard_normal((6, 9))
            truth = rng.integers(0, 9, size=6)
            got = _ranks_among_draws(_beats(sim, truth), truth, every_other_column(rng, 6, 9))
            want = [oracle_rank(sim[q], int(truth[q])) for q in range(6)]
            np.testing.assert_array_equal(got, want)

    def test_matches_oracle_with_heavy_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            sim = rng.integers(0, 3, size=(5, 8)).astype(float)  # many ties
            truth = rng.integers(0, 8, size=5)
            got = _ranks_among_draws(_beats(sim, truth), truth, every_other_column(rng, 5, 8))
            want = [oracle_rank(sim[q], int(truth[q])) for q in range(5)]
            np.testing.assert_array_equal(got, want)

    def test_tie_goes_to_lower_index(self):
        sim = np.array([[0.5, 0.5, 0.1]])
        assert full_gallery_ranks(sim, [0])[0] == 1
        assert full_gallery_ranks(sim, [1])[0] == 2

    def test_best_and_worst(self):
        sim = np.array([[3.0, 2.0, 1.0]])
        assert full_gallery_ranks(sim, [0])[0] == 1
        assert full_gallery_ranks(sim, [2])[0] == 3

    def test_rejections(self):
        with pytest.raises(ValueError):
            nway_evaluate(np.zeros((2, 3)), [0], n=1, trials=1, seed=0)  # truth length mismatch
        with pytest.raises(ValueError):
            nway_evaluate(np.zeros((2, 3)), [0, 3], n=1, trials=1, seed=0)  # outside gallery
        with pytest.raises(ValueError):
            nway_evaluate(np.zeros(3), [0], n=1, trials=1, seed=0)


class TestAggregates:
    """n equal to the gallery size: every trial ranks the full gallery."""

    def test_topk_counts_ranks(self):
        sim = np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
        report = nway_evaluate(sim, [0, 0], n=3, trials=1, seed=0)
        # ranks 1 and 3: top-1 and top-2 are 0.5, top-3 (top5 at n = 3) is 1
        assert report.top1 == 0.5
        assert report.top5 == 1.0
        assert report.mean_ap == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)

    def test_map_is_mean_reciprocal_rank(self):
        sim = np.array([[3.0, 2.0], [3.0, 2.0]])
        truth = [0, 1]  # ranks 1 and 2
        assert nway_evaluate(sim, truth, n=2, trials=1, seed=0).mean_ap == pytest.approx(0.75)

    def test_rank_two_gives_half(self):
        sim = np.array([[1.0, 2.0]])
        assert nway_evaluate(sim, [0], n=2, trials=1, seed=0).mean_ap == pytest.approx(0.5)

    def test_single_item_gallery(self):
        report = nway_evaluate(np.array([[0.3]]), [0], n=1, trials=1, seed=0)
        assert report.top1 == 1.0
        assert report.mean_ap == 1.0

    def test_bad_k_rejected(self):
        sim = np.zeros((1, 3))
        with pytest.raises(ValueError):
            nway_evaluate(sim, [0], n=0, trials=1, seed=0)
        with pytest.raises(ValueError):
            nway_evaluate(sim, [0], n=4, trials=1, seed=0)

    @pytest.mark.parametrize("sim, truth, message", [
        (np.zeros((2, 3)), [0], r"truth shape \(1,\) does not match 2 or more queries"),
        (np.zeros((2, 3)), [0, 3], "truth indices outside the gallery"),
        (np.zeros(3), [0], r"expected a \(queries, gallery\) block of similarities, "
                           r"got shape \(3,\)"),
        (np.zeros((2, 3)), [], r"expected a vector of truth indices, got shape \(0,\)"),
        (np.zeros((2, 3)), [[0], [1]], r"expected a vector of truth indices, got shape \(2, 1\)"),
    ], ids=["truth-too-short", "truth-outside", "one-axis", "truth-empty", "truth-matrix"])
    def test_reports_the_errors_of_nway_reports(self, sim, truth, message):
        with pytest.raises(ValueError, match=message):
            nway_evaluate(sim, truth, n=2, trials=1, seed=0)


class TestEvalReport:
    def test_fields_survive(self):
        r = EvalReport(gallery_size=5, trials=3, seed=1, top1=0.2, top5=0.9,
                       mean_ap=0.4, similarity=-0.1)
        assert r.gallery_size == 5 and r.top5 == 0.9

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            EvalReport(gallery_size=5, trials=3, seed=1, top1=1.2, top5=0.9,
                       mean_ap=0.4, similarity=0.0)


class TestNWay:
    @pytest.fixture()
    def diagonal_setup(self):
        rng = np.random.default_rng(7)
        sim = rng.uniform(-0.2, 0.2, size=(12, 12))
        sim[np.diag_indices(12)] = 1.0  # truth always wins
        return sim, np.arange(12)

    def test_perfect_matrix_scores_one(self, diagonal_setup):
        sim, truth = diagonal_setup
        report = nway_evaluate(sim, truth, n=6, trials=4, seed=3)
        assert report.top1 == 1.0
        assert report.top5 == 1.0
        assert report.mean_ap == 1.0
        assert report.similarity == pytest.approx(1.0)

    def test_deterministic_per_seed(self, diagonal_setup):
        sim, truth = diagonal_setup
        sim = sim + np.random.default_rng(8).normal(0, 2.0, sim.shape)
        a = nway_evaluate(sim, truth, n=5, trials=7, seed=11)
        b = nway_evaluate(sim, truth, n=5, trials=7, seed=11)
        assert a == b
        c = nway_evaluate(sim, truth, n=5, trials=7, seed=12)
        assert a != c  # different distractor draws

    def test_full_gallery_matches_direct_metrics(self, diagonal_setup):
        # n equal to the gallery size leaves nothing to sample: every
        # trial evaluates the full matrix
        sim, truth = diagonal_setup
        sim = sim + np.random.default_rng(9).normal(0, 2.0, sim.shape)
        report = nway_evaluate(sim, truth, n=12, trials=3, seed=0)
        ranks = np.array([oracle_rank(sim[q], int(truth[q])) for q in range(12)])
        assert report.top1 == pytest.approx(np.mean(ranks <= 1))
        assert report.top5 == pytest.approx(np.mean(ranks <= 5))
        assert report.mean_ap == pytest.approx(np.mean(1.0 / ranks))

    def test_two_way_random_scores_near_half(self):
        rng = np.random.default_rng(10)
        sim = rng.standard_normal((40, 40))
        report = nway_evaluate(sim, np.arange(40), n=2, trials=200, seed=5)
        assert 0.4 < report.top1 < 0.6
        assert report.top5 == 1.0  # k = min(5, 2) = 2 covers the gallery

    def test_small_n_uses_clamped_top5(self):
        sim = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        report = nway_evaluate(sim, [0, 1, 2], n=1, trials=2, seed=0)
        # gallery of one: truth is the only candidate
        assert report.top1 == report.top5 == report.mean_ap == 1.0

    def test_distractors_never_duplicate_truth(self):
        # similarity built so any duplicated truth column would be detected
        # as a tie at rank 1 awarded to the duplicate
        sim = np.full((6, 6), -1.0)
        sim[np.diag_indices(6)] = 1.0
        for seed in range(30):
            report = nway_evaluate(sim, np.arange(6), n=6, trials=2, seed=seed)
            assert report.top1 == 1.0

    def test_oversized_gallery_rejected(self):
        sim = np.zeros((3, 3))
        with pytest.raises(ConfigError, match="exceeds the test set size"):
            nway_evaluate(sim, [0, 1, 2], n=4, trials=1, seed=0)

    def test_degenerate_parameters_rejected(self):
        sim = np.zeros((3, 3))
        with pytest.raises(ConfigError):
            nway_evaluate(sim, [0, 1, 2], n=0, trials=1, seed=0)
        with pytest.raises(ConfigError):
            nway_evaluate(sim, [0, 1, 2], n=2, trials=0, seed=0)

    def test_rectangular_similarity_reports_no_similarity(self):
        sim = np.random.default_rng(11).standard_normal((4, 9))
        report = nway_evaluate(sim, [0, 1, 2, 3], n=3, trials=2, seed=1)
        assert report.similarity is None
        # equal inputs give equal reports
        assert report == nway_evaluate(sim, [0, 1, 2, 3], n=3, trials=2, seed=1)
        assert 0.0 <= report.top1 <= 1.0


class TestNWayMatchesLoop:
    """The blocked ranking reproduces the per-query loop exactly."""

    @staticmethod
    def _tied(queries, gallery, seed):
        # integer scores in [-2, 2] tie often, including with the truth
        rng = np.random.default_rng(seed)
        sim = rng.integers(-2, 3, size=(queries, gallery)).astype(float)
        return sim, rng.integers(0, gallery, size=queries)

    @pytest.mark.parametrize("n", [1, 2, 9])
    @pytest.mark.parametrize("queries", [9, 5])  # square, then rectangular
    def test_small_n_and_full_gallery(self, n, queries):
        sim, truth = self._tied(queries, 9, seed=n + 10 * queries)
        for seed in range(3):
            assert nway_evaluate(sim, truth, n, trials=4, seed=seed) == (
                loop_nway_evaluate(sim, truth, n, trials=4, seed=seed)
            )

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_ragged_query_blocks(self, rows):
        # 1-3 queries per block, or 7 and 4: several blocks and a ragged last one
        sim, truth = self._tied(11, 14, seed=rows)
        for n in (1, 2, 3, 14):
            blocks = [sim[start:start + rows] for start in range(0, len(sim), rows)]
            assert nway_reports(blocks, truth, [n], trials=3, seed=5)[0] == (
                loop_nway_evaluate(sim, truth, n, trials=3, seed=5)
            )

    def test_full_gallery_constructs_no_generator(self, monkeypatch):
        sim, truth = self._tied(6, 9, seed=1)
        made = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        nway_evaluate(sim, truth, 9, trials=5, seed=0)
        assert made == []
        nway_evaluate(sim, truth, 8, trials=5, seed=0)
        assert len(made) == 5  # a partial gallery draws from one generator per trial

    def test_full_gallery_report_does_not_depend_on_the_seed(self):
        sim, truth = self._tied(7, 7, seed=2)
        reports = {
            dataclasses.replace(nway_evaluate(sim, truth, 7, trials=3, seed=seed), seed=0)
            for seed in (0, 1, 12345)
        }
        assert len(reports) == 1

    def test_full_gallery_on_a_tied_rectangular_matrix(self):
        # seven trials each add the same means: the sums must keep the loop's bits
        sim, truth = self._tied(5, 12, seed=3)
        for seed in range(3):
            assert nway_evaluate(sim, truth, 12, trials=7, seed=seed) == (
                loop_nway_evaluate(sim, truth, 12, trials=7, seed=seed)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        queries=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=6),
        ties=st.booleans(),
        data=st.data(),
    )
    def test_random_matrices(self, queries, extra, ties, data):
        gallery = queries + extra
        seed = data.draw(st.integers(min_value=0, max_value=2**31), label="seed")
        n = data.draw(st.integers(min_value=1, max_value=gallery), label="n")
        if ties:
            sim, truth = self._tied(queries, gallery, seed)
        else:
            rng = np.random.default_rng(seed)
            sim = rng.standard_normal((queries, gallery))
            truth = rng.integers(0, gallery, size=queries)
        assert nway_evaluate(sim, truth, n, trials=2, seed=seed) == (
            loop_nway_evaluate(sim, truth, n, trials=2, seed=seed)
        )


def regather_ranks(sim, truth, draws):
    """Ranks from the drawn columns' float scores, gathered and compared
    afresh for every trial: the oracle for the `beats`-mask ranking."""
    others = draws + (draws >= truth[:, None])
    scores = np.take_along_axis(sim, others, axis=1)
    true_scores = np.take_along_axis(sim, truth[:, None], axis=1)
    higher = (scores > true_scores).sum(axis=1)
    tied_before = ((scores == true_scores) & (others < truth[:, None])).sum(axis=1)
    return 1 + higher + tied_before


def regather_trial_ranks(sim, truth, n, rng):
    """`_trial_ranks` on the similarity block itself: one draw per query,
    stacked for the whole block and re-gathered by `regather_ranks`."""
    n_queries, n_gallery = sim.shape
    if rng is None:
        draws = np.broadcast_to(np.arange(n - 1), (n_queries, n - 1))
    else:
        draws = np.stack([rng.choice(n_gallery - 1, size=n - 1, replace=False)
                          for _ in range(n_queries)])
    return regather_ranks(sim, truth, draws)


@st.composite
def rank_blocks(draw):
    """(sim, truth): a 64-row or ragged block of a gallery of 1-80 items,
    with heavy ties or none, and at times a NaN cell."""
    rows = draw(st.sampled_from([64, 1, 2, 13, 63, 65, 100]), label="rows")
    gallery = draw(st.integers(min_value=1, max_value=80), label="gallery")
    rng = np.random.default_rng(draw(st.integers(0, 2**31), label="seed"))
    if draw(st.booleans(), label="ties"):
        sim = rng.integers(-2, 3, size=(rows, gallery)).astype(float)
    else:
        sim = rng.standard_normal((rows, gallery))
    truth = rng.integers(0, gallery, size=rows)
    if draw(st.booleans(), label="nan"):  # at the truth or anywhere else
        q = int(rng.integers(rows))
        sim[q, truth[q] if draw(st.booleans(), label="at truth") else rng.integers(gallery)] = np.nan
    return sim, truth


class TestBeatsMask:
    """The `beats` mask ranks every trial with the bits of the float re-gather."""

    @settings(max_examples=150, deadline=None)
    @given(block=rank_blocks(), seed=st.integers(0, 2**31))
    def test_drawn_ranks_equal_the_regather(self, block, seed):
        sim, truth = block
        rng = np.random.default_rng(seed)
        gallery = sim.shape[1]
        for n in sorted({1, (gallery + 1) // 2, gallery}):
            draws = np.stack([rng.choice(gallery - 1, size=n - 1, replace=False)
                              for _ in truth])
            got = _ranks_among_draws(_beats(sim, truth), truth, draws)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got.view(np.uint64),
                                          regather_ranks(sim, truth, draws).view(np.uint64))

    @settings(max_examples=150, deadline=None)
    @given(block=rank_blocks(), seed=st.integers(0, 2**31))
    def test_trial_ranks_and_stream_equal_the_regather(self, block, seed):
        # n = 1, a partial gallery and the full one, on a 64-row or ragged
        # block: the ranks keep their bits and the generators end in the
        # same state
        sim, truth = block
        gallery = sim.shape[1]
        beats = _beats(sim, truth)
        assert beats.dtype == np.bool_ and beats.nbytes * 8 == sim.nbytes
        for n in sorted({1, (gallery + 1) // 2, gallery}):
            got_rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
            want_rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
            got = _trial_ranks(beats, truth, n, got_rng)
            want = regather_trial_ranks(sim, truth, n, want_rng)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
        full = _trial_ranks(beats, truth, gallery, None)
        np.testing.assert_array_equal(
            full.view(np.uint64),
            regather_trial_ranks(sim, truth, gallery, None).view(np.uint64))

    def test_a_nan_truth_ranks_first_and_a_nan_column_never_beats(self):
        sim = np.array([[np.nan, 0.5, 0.2], [0.1, np.nan, 0.3]])
        truth = np.array([0, 0])
        np.testing.assert_array_equal(_beats(sim, truth), [[False] * 3, [False, False, True]])
        assert _trial_ranks(_beats(sim, truth), truth, 3, None).tolist() == [1, 2]


def row_blocks(sim: np.ndarray, cuts) -> list[np.ndarray]:
    """`sim` split into consecutive blocks of query rows at the row indices `cuts`."""
    return np.split(sim, sorted(set(cuts)))


class TestBlocks:
    """`nway_reports` over row blocks equals `nway_evaluate` on the whole matrix."""

    @settings(max_examples=80, deadline=None)
    @given(
        queries=st.integers(min_value=1, max_value=12),
        extra=st.integers(min_value=-3, max_value=6),
        trials=st.integers(min_value=1, max_value=4),
        ties=st.booleans(),
        data=st.data(),
    )
    def test_any_split_gives_the_whole_matrix_bits(self, queries, extra, trials, ties, data):
        gallery = max(1, queries + extra)  # Q != G: no similarity score
        seed = data.draw(st.integers(min_value=0, max_value=2**31), label="seed")
        rng = np.random.default_rng(seed)
        if ties:  # integer scores in [-2, 2] tie often, the truth included
            sim = rng.integers(-2, 3, size=(queries, gallery)).astype(float)
        else:
            sim = rng.standard_normal((queries, gallery))
        truth = rng.integers(0, gallery, size=queries)
        # cuts anywhere: one-row blocks and a one-row tail included
        cuts = data.draw(st.lists(st.integers(min_value=1, max_value=max(1, queries - 1)),
                                  max_size=queries - 1), label="cuts")
        sizes = list(range(gallery, 0, -1))  # every gallery size, the full one first
        got = nway_reports(row_blocks(sim, cuts), truth, sizes, trials, seed)
        want = [nway_evaluate(sim, truth, n, trials, seed) for n in sizes]
        assert got == want
        assert want == [loop_nway_evaluate(sim, truth, n, trials, seed) for n in sizes]
        assert all((r.similarity is None) == (queries != gallery) for r in got)

    def test_one_row_blocks_of_a_square_matrix(self):
        rng = np.random.default_rng(3)
        sim = rng.integers(-2, 3, size=(9, 9)).astype(float)
        truth = rng.permutation(9)
        sizes = [9, 4, 2, 1]
        got = nway_reports(iter(sim[:, None, :]), truth, sizes, trials=5, seed=1)
        assert got == [nway_evaluate(sim, truth, n, trials=5, seed=1) for n in sizes]
        assert got[0].similarity == float(np.mean(np.diagonal(sim)))

    def test_one_generator_per_trial_of_each_partial_gallery(self, monkeypatch):
        sim = np.random.default_rng(4).standard_normal((10, 10))
        made, real = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or real(*a))
        nway_reports(row_blocks(sim, [1, 2, 5, 9]), np.arange(10), [10, 6, 2], trials=3, seed=0)
        assert len(made) == 2 * 3  # none for the full gallery, none per block

    def test_blocks_are_held_one_at_a_time(self):
        sim = np.random.default_rng(5).standard_normal((6, 6))
        held = []

        def blocks():  # notes, as each block is made, whether the last one is alive
            last = lambda: None  # noqa: E731
            for start in range(6):
                gc.collect()
                held.append(last() is not None)
                block = sim[start : start + 1].copy()
                last = weakref.ref(block)
                yield block
                del block

        nway_reports(blocks(), np.arange(6), [6, 3], trials=2, seed=0)
        assert held == [False] * 6

    @pytest.mark.parametrize("blocks, message", [
        ([], "does not match 0 queries"),
        ([np.zeros((2, 3))], "does not match 2 queries"),
        ([np.zeros((2, 3)), np.zeros((2, 3))], "does not match 4 or more queries"),
        ([np.zeros((2, 3)), np.zeros((1, 4))], r"expected a \(queries, 3\) block"),
        ([np.zeros((2, 3)), np.zeros((0, 3))], r"expected a \(queries, 3\) block"),
        ([np.zeros(3)], r"expected a \(queries, gallery\) block"),
    ])
    def test_rejections(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            nway_reports(blocks, [0, 1, 2], [2], trials=1, seed=0)

    def test_truth_outside_the_gallery(self):
        with pytest.raises(ValueError, match="truth indices outside the gallery"):
            nway_reports([np.zeros((2, 3))], [0, 3], [2], trials=1, seed=0)

    def test_numpy_integers_read_as_ints(self):
        sim = np.random.default_rng(6).standard_normal((6, 6))
        got = nway_reports([sim], np.arange(6), np.array([6, 3]), np.int64(2), np.int64(1))
        assert got == nway_reports([sim], np.arange(6), [6, 3], trials=2, seed=1)
        assert {type(v) for r in got for v in (r.gallery_size, r.trials, r.seed)} == {int}

    @pytest.mark.parametrize("sizes, trials, seed", [([2.0], 1, 0), ([2], 1.0, 0), ([2], 1, 0.5)],
                             ids=["size", "trials", "seed"])
    def test_a_non_integer_fails_before_any_block(self, sizes, trials, seed):
        def blocks():
            raise AssertionError("a block was taken")
            yield

        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            nway_reports(blocks(), [0, 1, 2], sizes, trials, seed)


@settings(max_examples=100, deadline=None)
@given(
    n_gallery=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rank_bounds_and_oracle_property(n_gallery, seed):
    rng = np.random.default_rng(seed)
    sim = rng.integers(-2, 3, size=(3, n_gallery)).astype(float)
    truth = rng.integers(0, n_gallery, size=3)
    ranks = _ranks_among_draws(_beats(sim, truth), truth, every_other_column(rng, 3, n_gallery))
    assert np.all((1 <= ranks) & (ranks <= n_gallery))
    for q in range(3):
        assert ranks[q] == oracle_rank(sim[q], int(truth[q]))
