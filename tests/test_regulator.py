"""Feedback-controlled blur schedule: smoothing, bounds, kernel moves."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovalign.regulator import BlurSchedule, confidence_bounds


class TestConfidenceBounds:
    def test_committed_three_point_batch(self):
        lower, upper = confidence_bounds(np.array([0.5, 0.6, 0.7]), z=1.96)
        # sigma = sqrt(1/150); 0.6 -+ 1.96 * sigma
        sigma = math.sqrt(1.0 / 150.0)
        assert lower == pytest.approx(0.6 - 1.96 * sigma, abs=1e-12)
        assert upper == pytest.approx(0.6 + 1.96 * sigma, abs=1e-12)
        assert lower == pytest.approx(0.4400, abs=1e-4)
        assert upper == pytest.approx(0.7600, abs=1e-4)

    def test_population_not_sample_deviation(self):
        values = np.array([0.0, 1.0])
        lower, upper = confidence_bounds(values, z=1.0)
        # population sigma is 0.5 (ddof=0); sample sigma would be ~0.707
        assert upper == pytest.approx(1.0)
        assert lower == pytest.approx(0.0)

    def test_zero_z_collapses_to_mean(self):
        lower, upper = confidence_bounds(np.array([0.2, 0.4, 0.9]), z=0.0)
        assert lower == upper == pytest.approx(0.5)

    def test_single_value_degenerates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert confidence_bounds(np.array([0.3]), z=1.96) == (0.3, 0.3)

    def test_rejections(self):
        with pytest.raises(ValueError):
            confidence_bounds(np.array([]), z=1.0)
        with pytest.raises(ValueError):
            confidence_bounds(np.zeros((2, 2)), z=1.0)
        with pytest.raises(ValueError):
            confidence_bounds(np.array([0.1, 0.2]), z=-1.0)
        with pytest.raises(ValueError):
            confidence_bounds(np.array([0.1, 0.2]), z=float("nan"))


def make_schedule(n=4, **kwargs):
    defaults = dict(kernel_init=75, momentum=0.9, step=6, kernel_min=1, kernel_max=149)
    defaults.update(kwargs)
    return BlurSchedule(sample_ids=range(n), **defaults)


class TestSmoothing:
    def test_first_observation_initializes(self):
        sched = make_schedule()
        out = sched.update_smoothed([0], [0.5])
        np.testing.assert_array_equal(out, [0.5])

    def test_committed_momentum_example(self):
        sched = make_schedule()
        sched.update_smoothed([0], [0.5])
        out = sched.update_smoothed([0], [0.7])
        # 0.9 * 0.7 + 0.1 * 0.5
        assert out[0] == pytest.approx(0.68, abs=1e-12)

    def test_momentum_weights_new_observation(self):
        sched = make_schedule(momentum=1.0)
        sched.update_smoothed([0], [0.1])
        out = sched.update_smoothed([0], [0.9])
        assert out[0] == 0.9  # history forgotten entirely

    def test_zero_momentum_freezes_first_value(self):
        sched = make_schedule(momentum=0.0)
        sched.update_smoothed([0], [0.1])
        out = sched.update_smoothed([0], [0.9])
        assert out[0] == 0.1

    def test_per_sample_isolation(self):
        sched = make_schedule()
        sched.update_smoothed([0, 1], [0.2, 0.8])
        sched.update_smoothed([0], [0.4])
        # feeding 0.8 again returns 0.8 only if sample 1 still holds 0.8
        np.testing.assert_allclose(sched.update_smoothed([1], [0.8]), [0.8])

    def test_mean_smoothed_only_counts_seen(self):
        sched = make_schedule(n=3)
        sched.update_smoothed([0, 2], [0.4, 0.8])
        assert sched.mean_smoothed() == pytest.approx(0.6)

    def test_mean_smoothed_empty_is_zero(self):
        assert make_schedule().mean_smoothed() == 0.0

    def test_rejections(self):
        sched = make_schedule(n=2)
        with pytest.raises(ValueError, match="unknown sample id"):
            sched.update_smoothed([5], [0.1])
        with pytest.raises(ValueError, match="duplicate"):
            sched.update_smoothed([0, 0], [0.1, 0.2])
        with pytest.raises(ValueError):
            sched.update_smoothed([0, 1], [0.1])  # shape mismatch
        with pytest.raises(ValueError, match="finite"):
            sched.update_smoothed([0], [float("nan")])


class TestKernelMoves:
    def test_confidently_high_shrinks(self):
        sched = make_schedule(n=1)
        sched.update_smoothed([0], [0.9])
        out = sched.update_kernels([0], (0.2, 0.8))
        assert out[0] == 69  # 75 - 6

    def test_confidently_low_grows(self):
        sched = make_schedule(n=1, kernel_max=149)
        sched.update_smoothed([0], [0.1])
        out = sched.update_kernels([0], (0.2, 0.8))
        assert out[0] == 81

    def test_ties_leave_kernel(self):
        # the inequalities are strict: landing exactly on a bound is not
        # confident in either direction
        sched = make_schedule(n=2)
        sched.update_smoothed([0, 1], [0.2, 0.8])
        out = sched.update_kernels([0, 1], (0.2, 0.8))
        np.testing.assert_array_equal(out, [75, 75])

    def test_inside_band_leaves_kernel(self):
        sched = make_schedule(n=1)
        sched.update_smoothed([0], [0.5])
        out = sched.update_kernels([0], (0.2, 0.8))
        assert out[0] == 75

    def test_clamps_at_both_ends(self):
        sched = make_schedule(n=2, kernel_init=3, kernel_min=1, kernel_max=5)
        sched.update_smoothed([0, 1], [0.9, 0.1])
        for _ in range(4):
            sched.update_kernels([0, 1], (0.2, 0.8))
        np.testing.assert_array_equal(sched.kernels_of([0, 1]), [1, 5])

    def test_closed_loop_reaches_floor_in_exact_step_count(self):
        # a stream that always reads as confidently aligned drives the
        # kernel from 75 down to the floor in ceil(74 / 6) = 13 moves
        sched = make_schedule(n=1)
        sched.update_smoothed([0], [1.0])
        trajectory = []
        for _ in range(13):
            trajectory.append(int(sched.update_kernels([0], (0.0, 0.5))[0]))
        assert trajectory == [69, 63, 57, 51, 45, 39, 33, 27, 21, 15, 9, 3, 1]
        assert trajectory[11] != 1  # not there after 12 moves
        assert trajectory[12] == 1
        # pinned: stays put afterwards
        assert sched.update_kernels([0], (0.0, 0.5))[0] == 1

    def test_update_before_observation_rejected(self):
        sched = make_schedule(n=2)
        sched.update_smoothed([0], [0.5])
        with pytest.raises(ValueError, match="before any"):
            sched.update_kernels([0, 1], (0.2, 0.8))

    def test_bad_bounds_rejected(self):
        sched = make_schedule(n=1)
        sched.update_smoothed([0], [0.5])
        with pytest.raises(ValueError):
            sched.update_kernels([0], (0.8, 0.2))
        with pytest.raises(ValueError):
            sched.update_kernels([0], (float("nan"), 0.5))

    def test_histogram_totals(self):
        sched = make_schedule(n=5)
        sched.update_smoothed([0, 1], [0.9, 0.9])
        sched.update_kernels([0, 1], (0.0, 0.5))
        hist = sched.kernel_histogram()
        assert hist == {69: 2, 75: 3}
        assert all(isinstance(k, int) and isinstance(v, int) for k, v in hist.items())


class TestConstruction:
    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            make_schedule(kernel_init=74)

    def test_even_step_required(self):
        with pytest.raises(ValueError, match="even"):
            make_schedule(step=5)
        with pytest.raises(ValueError):
            make_schedule(step=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            BlurSchedule(sample_ids=[1, 1], kernel_init=5, momentum=0.9, step=6,
                         kernel_min=1, kernel_max=9)

    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError):
            BlurSchedule(sample_ids=[], kernel_init=5, momentum=0.9, step=6,
                         kernel_min=1, kernel_max=9)

    def test_init_outside_clamp_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_schedule(kernel_init=75, kernel_max=51)

    def test_bad_momentum_rejected(self):
        with pytest.raises(ValueError, match="momentum"):
            make_schedule(momentum=1.5)


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1,
        max_size=60,
    ),
    kernel_init=st.integers(min_value=0, max_value=40).map(lambda i: 2 * i + 1),
    step=st.integers(min_value=1, max_value=10).map(lambda i: 2 * i),
    data=st.data(),
)
def test_parity_and_clamp_invariants(scores, kernel_init, step, data):
    """Kernels stay odd and inside the clamp under any update stream."""
    sched = BlurSchedule(
        sample_ids=[0], kernel_init=kernel_init, momentum=0.9, step=step, kernel_min=1,
        kernel_max=2 * kernel_init - 1 if kernel_init > 1 else 1,
    )
    for s in scores:
        sched.update_smoothed([0], [s])
        lo = data.draw(st.floats(min_value=-1.0, max_value=1.0))
        hi = data.draw(st.floats(min_value=lo, max_value=2.0))
        k = int(sched.update_kernels([0], (lo, hi))[0])
        assert k % 2 == 1
        assert sched.kernel_min <= k <= sched.kernel_max
