"""Each analytic forward/backward pair against central finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from conftest import central_difference, fsum_along, relative_error
from fovalign import nn


def bits(arr) -> list[int]:
    """The int64 view, so signed zeros and NaN payloads count."""
    return np.asarray(arr, dtype=np.float64).view(np.int64).tolist()


def outcome(fn, arr, axis):
    """The result's bits, or the type and message of what was raised."""
    try:
        return bits(fn(arr, axis))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def test_exact_sum_matches_fsum_and_ignores_order():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, size=(5, 7))
    out = nn.exact_sum(arr, axis=1)
    for i in range(5):
        assert out[i] == math.fsum(arr[i])
        assert out[i] == math.fsum(arr[i][::-1])


def test_exact_sum_any_axis():
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((3, 4, 5))
    for axis in (0, 1, 2, -1, -2, -3):
        assert bits(nn.exact_sum(arr, axis=axis)) == bits(fsum_along(arr, axis))


_EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 3.0, 2.0**-52, 2.0**-53, -2.0**-53, 2.0**-54, 2.0**-106,
    1e16, -1e16, 1e308, -1e308, 5e-324, -5e-324, 2.0**-1022, -2.0**-1022,
]
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_VALUES),
    # odd mantissas over the whole exponent range, down into the subnormals
    st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1130, 960)),
)
_special = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def _summands(draw, special: bool):
    """(arr, axis): 1-3 axes of length 1-8, with pairs of entries along the
    reduced axis set to cancel and, if `special`, some inf and nan."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8))
    elements = st.one_of(_finite, _special) if special else _finite
    arr = draw(hnp.arrays(np.float64, shape, elements=elements))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    work = np.moveaxis(arr, axis, -1)
    n = work.shape[-1]
    for _ in range(draw(st.integers(0, n // 2))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cancel = -work[..., src]
        if draw(st.booleans()):
            cancel = np.nextafter(cancel, 0.0)  # leaves a one-ulp residue
        work[..., dst] = cancel
    return arr, axis


@settings(max_examples=400, deadline=None)
@given(case=_summands(special=False))
def test_exact_sum_is_fsum_bit_for_bit(case):
    arr, axis = case
    assert outcome(nn.exact_sum, arr, axis) == outcome(fsum_along, arr, axis)


@settings(max_examples=200, deadline=None)
@given(case=_summands(special=True))
def test_exact_sum_is_fsum_with_inf_and_nan(case):
    arr, axis = case
    assert outcome(nn.exact_sum, arr, axis) == outcome(fsum_along, arr, axis)


def test_exact_sum_ties_and_interspersed_zeros():
    # 1 + 2**-53 is a tie broken upward only by the small partial below it,
    # which zeros in the expansion must not hide
    rows = np.array([
        [2.0**-106, 0.0, 1.0, 2.0**-53, -0.0],
        [-(2.0**-106), 1.0, 0.0, 2.0**-53, 0.0],
        [1e-16, 1.0, 1e16, 0.0, 0.0],
        [2.0**-53, 1.0, 2.0**-106, 1.0, -1.0],
        [-0.0, -0.0, -0.0, -0.0, -0.0],
        [5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 5e-324],
    ])
    for order in (slice(None), slice(None, None, -1)):
        assert bits(nn.exact_sum(rows[:, order], axis=1)) == bits(fsum_along(rows[:, order], 1))
    assert nn.exact_sum(rows, axis=1)[2] == 1e16 + 2.0
    assert bits(nn.exact_sum(rows, axis=1)[4]) == bits(0.0)


def test_exact_sum_inf_and_nan_rows():
    arr = np.array([[1.0, math.inf, 2.0], [math.nan, 1.0, 0.0], [0.1, 0.2, 0.3]])
    out = nn.exact_sum(arr.T, axis=0)
    assert out[0] == math.inf and math.isnan(out[1])
    assert bits(out) == bits(fsum_along(arr, 1))


@pytest.mark.parametrize("axis", [0, 1])
def test_exact_sum_raises_as_fsum_does(axis):
    overflow = np.array([[1.0, 2.0, 3.0], [1e308, 1e308, -1e308]])
    with pytest.raises(OverflowError, match="intermediate overflow"):
        nn.exact_sum(overflow if axis == 1 else overflow.T, axis=axis)
    opposed = np.array([[1.0, 2.0, 3.0], [math.inf, 1.0, -math.inf]])
    with pytest.raises(ValueError, match=r"-inf \+ inf"):
        nn.exact_sum(opposed if axis == 1 else opposed.T, axis=axis)


def test_exact_sum_empty_axes():
    assert bits(nn.exact_sum(np.zeros((3, 0)), axis=1)) == bits(np.zeros(3))
    assert nn.exact_sum(np.zeros((0, 4)), axis=1).shape == (0,)


def test_affine_forward_and_backward():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 3, 5))
    w = rng.standard_normal((5, 6))
    b = rng.standard_normal(6)
    gy = rng.standard_normal((4, 3, 6))
    np.testing.assert_allclose(nn.affine_forward(x, w, b), x @ w + b, atol=1e-12)
    gx, gw, gb = nn.affine_backward(gy, x, w)

    def total(xx=x, ww=w, bb=b):
        return float(np.sum(nn.affine_forward(xx, ww, bb) * gy))

    assert relative_error(gx, central_difference(lambda v: total(xx=v), x)) < 1e-5
    assert relative_error(gw, central_difference(lambda v: total(ww=v), w)) < 1e-5
    assert relative_error(gb, central_difference(lambda v: total(bb=v), b)) < 1e-5


def test_gelu_value_and_gradient():
    x = np.linspace(-4, 4, 101)
    # reference values: gelu(0) = 0, gelu(x) -> x for large x, odd-ish shape
    y, erf_term = nn.gelu(x)
    assert y[50] == 0.0
    np.testing.assert_allclose(y[-1], 4.0, atol=2e-4)
    np.testing.assert_allclose(y[0], 0.0, atol=2e-4)
    fd = central_difference(lambda v: float(np.sum(nn.gelu(v)[0])), x, step=1e-6)
    assert relative_error(nn.gelu_grad(x, erf_term), fd) < 1e-5


def test_softplus_stable_and_correct():
    x = np.array([-800.0, -20.0, -1.0, 0.0, 1.0, 20.0, 800.0])
    y = nn.softplus(x)
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y[3], math.log(2.0), rtol=1e-15)
    np.testing.assert_allclose(y[1:6], np.log1p(np.exp(x[1:6])), rtol=1e-12)
    np.testing.assert_allclose(y[-1], 800.0, rtol=1e-15)
    assert y[0] == 0.0


def test_sigmoid_is_softplus_derivative():
    x = np.linspace(-6, 6, 25)
    fd = central_difference(lambda v: float(np.sum(nn.softplus(v))), x, step=1e-6)
    assert relative_error(expit(x), fd) < 1e-5


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 9)) * 50
    p = nn.softmax(x, axis=1)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(p, nn.softmax(x + 123.0, axis=1), atol=1e-12)
    assert np.all(p > 0)


def test_softmax_known_values():
    np.testing.assert_allclose(
        nn.softmax(np.array([math.log(2.0), 0.0])), [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12
    )


def test_layernorm_forward_statistics():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 8)) * 3 + 2
    y, _ = nn.layernorm_forward(x, np.ones(8), np.zeros(8), eps=1e-5)
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)  # eps deflates slightly


def test_layernorm_backward_full():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 6))
    gain = rng.standard_normal(6)
    bias = rng.standard_normal(6)
    gy = rng.standard_normal((3, 6))
    eps = 1e-5
    _, cache = nn.layernorm_forward(x, gain, bias, eps)
    gx, ggain, gbias = nn.layernorm_backward(gy, cache, gain)

    def total(xx=x, gg=gain, bb=bias):
        return float(np.sum(nn.layernorm_forward(xx, gg, bb, eps)[0] * gy))

    assert relative_error(gx, central_difference(lambda v: total(xx=v), x)) < 1e-5
    assert relative_error(ggain, central_difference(lambda v: total(gg=v), gain)) < 1e-5
    assert relative_error(gbias, central_difference(lambda v: total(bb=v), bias)) < 1e-5


def test_dropout_mask_statistics_and_scaling():
    rng = np.random.default_rng(6)
    mask = nn.dropout_mask((200, 50), 0.25, rng)
    kept = mask > 0
    np.testing.assert_allclose(kept.mean(), 0.75, atol=0.02)
    np.testing.assert_allclose(mask[kept], 1.0 / 0.75, rtol=1e-12)
    # inverted scaling keeps the expectation of x * mask equal to x
    np.testing.assert_allclose(mask.mean(), 1.0, atol=0.03)


def test_dropout_rate_zero_is_all_ones():
    mask = nn.dropout_mask((4, 4), 0.0, np.random.default_rng(7))
    np.testing.assert_array_equal(mask, np.ones((4, 4)))


def test_dropout_bad_rate_rejected():
    with pytest.raises(ValueError):
        nn.dropout_mask((2,), 1.0, np.random.default_rng(8))
