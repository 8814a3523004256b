"""Each analytic forward/backward pair against central finite differences."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from conftest import central_difference, relative_error
from fovalign import nn


def bits(arr) -> list[int]:
    """The int64 view, so signed zeros and NaN payloads count."""
    return np.asarray(arr, dtype=np.float64).view(np.int64).tolist()


_EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 3.0, 2.0**-52, 2.0**-53, -2.0**-53, 2.0**-54, 2.0**-106,
    1e16, -1e16, 1e300, -1e300, 5e-324, -5e-324, 2.0**-1022, -2.0**-1022,
]
# finite values small enough that no sum of 8 of them overflows
_moderate = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from(_EDGE_VALUES),
    # odd mantissas over the exponent range, down into the subnormals
    st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1130, 940)),
)
_any = st.one_of(_moderate, st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan]))


@st.composite
def _summands(draw, elements):
    """(arr, axis): 1-3 axes of length 1-8, with pairs of entries along the
    reduced axis set to cancel."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8))
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


def _rows(arr, axis) -> np.ndarray:
    """The rows along `axis`, in the order of the reduced result's entries."""
    return np.moveaxis(arr, axis, -1).reshape(-1, arr.shape[axis])


@settings(max_examples=300, deadline=None)
@given(case=_summands(_any), data=st.data())
def test_exact_sum_ignores_order_along_any_axis(case, data):
    arr, axis = case
    # an independent reordering of every row
    keys = data.draw(hnp.arrays(np.int64, arr.shape, elements=st.integers(0, 7)))
    shuffled = np.take_along_axis(arr, np.argsort(keys, axis=axis, kind="stable"), axis=axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, again = nn.exact_sum(arr, axis), nn.exact_sum(shuffled, axis)
    nan = np.isnan(out)
    assert np.array_equal(nan, np.isnan(again))
    assert bits(out[~nan]) == bits(again[~nan])
    rows = _rows(arr, axis)
    must_be_nan = np.isnan(rows).any(axis=1) | ((rows == math.inf).any(axis=1)
                                                 & (rows == -math.inf).any(axis=1))
    assert nan.ravel()[must_be_nan].all()


@settings(max_examples=200, deadline=None)
@given(case=_summands(_moderate))
def test_exact_sum_error_within_the_recursive_summation_bound(case):
    # |sum - exact| <= gamma_(n-1) * sum |x|, gamma_k = k u / (1 - k u), u = 2**-53
    arr, axis = case
    out = nn.exact_sum(arr, axis)
    n = arr.shape[axis]
    gamma = Fraction(n - 1, 2**53 - (n - 1))
    for got, row in zip(out.ravel(), _rows(arr, axis)):
        exact = sum(map(Fraction, row.tolist()))
        assert abs(Fraction(got) - exact) <= gamma * sum(abs(Fraction(x)) for x in row.tolist())


@pytest.mark.parametrize("axis", [0, 1])
def test_exact_sum_overflow_and_nan_without_exception_or_warning(axis):
    rows = np.array([
        [1e308, 1.0, 1e308],  # finite entries whose sum overflows
        [-1e308, -1e308, -1.0],
        [math.inf, 1.0, -math.inf],
        [1.0, math.nan, 2.0],
        [math.inf, 0.0, math.nan],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nn.exact_sum(rows if axis == 1 else rows.T, axis=axis)
    assert out[0] == math.inf and out[1] == -math.inf
    assert np.isnan(out[2:]).all()


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
