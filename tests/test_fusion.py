"""Evidence-weighted fusion: belief math, pooling, attention, gradients."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_difference, relative_error
from fovalign import nn
from fovalign.config import FusionConfig
from fovalign.fusion import (
    belief_weights,
    evidential_pool,
    fusion_backward,
    fusion_forward,
    fusion_shapes,
)


def make_settings(**overrides) -> FusionConfig:
    base = dict(dim_latent=8, dim_hidden=8, dim_bottleneck=4, dropout=0.1)
    base.update(overrides)
    return FusionConfig(**base)


def make_params(settings: FusionConfig, dim_feature: int, seed: int = 0) -> dict:
    """The declared fusion arrays by `init_parameters`' rule, drawn from
    `default_rng(seed)`: matrices Gaussian over sqrt(fan_in), the
    layer-norm gain one, the rest zero."""
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(shape) / np.sqrt(shape[0]) if len(shape) == 2
        else np.ones(shape) if name == "ln_gain" else np.zeros(shape)
        for name, shape in fusion_shapes(settings, dim_feature).items()
    }


def forward_cache(features: np.ndarray, params: dict, settings: FusionConfig) -> dict:
    """The eval-mode cache of `fusion_forward` for one (views, dim) sample."""
    return fusion_forward(features[None], params, settings)[1]


def pool(features, weights, eps: float = 1e-8) -> np.ndarray:
    return evidential_pool(features, weights, eps)[0]


class TestBeliefWeights:
    def test_zero_raw_evidence_is_two(self):
        # softplus(0) = ln 2, exp(ln 2) = 2 exactly in floating point
        params = make_params(make_settings(), dim_feature=6)
        params["ev_w2"] = np.zeros_like(params["ev_w2"])
        params["ev_b2"] = np.zeros_like(params["ev_b2"])
        features = np.random.default_rng(1).standard_normal((3, 6))
        evidence = forward_cache(features, params, make_settings())["state"].evidence
        np.testing.assert_array_equal(evidence, 2.0)

    def test_softplus_only_mode(self):
        params = make_params(make_settings(softplus_only=True), dim_feature=6)
        params["ev_w2"] = np.zeros_like(params["ev_w2"])
        params["ev_b2"] = np.zeros_like(params["ev_b2"])
        features = np.random.default_rng(2).standard_normal((3, 6))
        settings = make_settings(softplus_only=True)
        evidence = forward_cache(features, params, settings)["state"].evidence
        np.testing.assert_allclose(evidence, math.log(2.0), rtol=1e-15)

    def test_committed_example_nine(self):
        state = belief_weights(np.array([9.0]))
        assert state.strength[0] == 10.0
        assert state.uncertainty[0] == 0.1
        assert state.belief[0] == 0.9

    def test_zero_evidence_means_full_uncertainty(self):
        state = belief_weights(np.array([0.0]))
        assert state.uncertainty[0] == 1.0
        assert state.belief[0] == 0.0

    def test_uncertainty_plus_belief_exactly_one(self):
        rng = np.random.default_rng(3)
        e = np.concatenate([
            rng.uniform(0, 1e6, size=5000),
            rng.uniform(0, 1e-6, size=2500),
            10.0 ** rng.uniform(-300, 300, size=2500),
        ])
        state = belief_weights(e)
        assert np.all(state.uncertainty + state.belief == 1.0)

    def test_belief_strictly_monotone(self):
        rng = np.random.default_rng(4)
        e = np.unique(rng.uniform(0.0, 100.0, size=10_000))
        w = belief_weights(e).belief
        assert np.all(np.diff(w) > 0)

    def test_negative_or_nan_evidence_rejected(self):
        with pytest.raises(ValueError):
            belief_weights(np.array([-0.1]))
        with pytest.raises(ValueError):
            belief_weights(np.array([np.nan]))

    @given(st.floats(min_value=0.0, max_value=1e300, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_complement_identity_holds_everywhere(self, e):
        state = belief_weights(np.array([e]))
        assert state.uncertainty[0] + state.belief[0] == 1.0
        assert 0.0 <= state.belief[0] < 1.0 or state.belief[0] == 1.0


class TestEvidentialPool:
    def test_equal_weights_give_mean(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 7))
        pooled = pool(x, np.full(4, 0.5))
        np.testing.assert_allclose(pooled, x.mean(axis=0), atol=2e-8)

    def test_one_hot_weights_select_view(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 5))
        pooled = pool(x, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(pooled, x[1], rtol=1e-7)

    def test_zero_weights_give_zero_vector(self):
        x = np.random.default_rng(7).standard_normal((3, 5))
        pooled, den = evidential_pool(x, np.zeros(3), eps=1e-8)
        np.testing.assert_array_equal(pooled, np.zeros(5))
        assert den == 1e-8

    def test_permutation_invariance_is_bit_exact(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 9))
        w = rng.uniform(0.01, 1.0, size=6)
        base = pool(x, w)
        for _ in range(20):
            perm = rng.permutation(6)
            np.testing.assert_array_equal(pool(x[perm], w[perm]), base)

    def test_weight_rescale_near_invariance(self):
        # scaling all weights by c cancels, up to the eps in the denominator
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 5))
        w = rng.uniform(0.5, 1.0, size=4)
        np.testing.assert_allclose(
            pool(x, 10.0 * w), pool(x, w), atol=1e-8
        )

    def test_batched_input(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, 5))
        w = rng.uniform(0.1, 1.0, size=(3, 4))
        pooled = pool(x, w)
        assert pooled.shape == (3, 5)
        for b in range(3):
            np.testing.assert_array_equal(pooled[b], pool(x[b], w[b]))

    @staticmethod
    def two_sums(x, w, eps):
        """The pool as two separate exact sums, numerator and weight total."""
        num = nn.exact_sum(w[..., None] * x, axis=-2)
        den = nn.exact_sum(w, axis=-1) + eps
        return num / den[..., None], den

    @pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
    def test_one_sum_equals_two_sums_bit_for_bit(self, batch):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(batch + (4, 6)) * 10.0 ** rng.integers(-300, 300, batch + (4, 6))
        w = rng.uniform(0.0, 1.0, batch + (4,))
        # signed zeros in the features and the weights, and rows of zero weight
        x[..., 0, :2] = -0.0
        x[..., 1, 2] = 0.0
        w[..., 2] = -0.0
        if batch:
            w[(0,) * len(batch)] = 0.0
        else:
            w[:] = -0.0
        for eps in (1e-8, 0.0):
            with np.errstate(invalid="ignore", divide="ignore"):
                got = evidential_pool(x, w, eps)
                want = self.two_sums(x, w, eps)
            for g, e in zip(got, want):
                assert g.shape == e.shape
                assert g.view(np.int64).tolist() == e.view(np.int64).tolist()


class TestAttention:
    def test_committed_softmax_example(self):
        # scores (ln 2, 0) put weight (2/3, 1/3) on the two views
        features = np.array([[math.log(2.0)], [0.0]])
        params = make_params(make_settings(), dim_feature=1)
        params.update(att_w=np.array([[1.0]]), att_b=np.zeros(1))
        cache = forward_cache(features, params, make_settings())
        np.testing.assert_allclose(cache["alpha"][0], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)
        expected = (2.0 / 3.0) * math.log(2.0)
        np.testing.assert_allclose(cache["att_raw"][0], [expected], rtol=1e-12)

    def test_uniform_scores_average_views(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 6))
        params = make_params(make_settings(), dim_feature=6)
        params.update(att_w=np.zeros((6, 1)), att_b=np.zeros(1))
        cache = forward_cache(x, params, make_settings())
        np.testing.assert_allclose(cache["att_raw"][0], x.mean(axis=0), atol=1e-12)

    def test_projection_applied_when_present(self):
        # dim_latent != dim_feature: F_fus = F_evidence + projected attention
        settings = make_settings(dim_latent=2)
        params = make_params(settings, dim_feature=4, seed=12)
        rng = np.random.default_rng(12)
        params["att_proj_b"] = rng.standard_normal(2)  # nonzero, unlike at init
        x = rng.standard_normal((3, 4))
        cache = forward_cache(x, params, settings)
        f_ev = cache["pooled"] @ params["proj_w"] + params["proj_b"]
        f_att = cache["att_raw"] @ params["att_proj_w"] + params["att_proj_b"]
        np.testing.assert_allclose(cache["f_fus"], f_ev + f_att, atol=1e-12)


class TestFusionForward:
    def test_reference_composition(self):
        # independently re-compose the forward pass from the primitives
        settings = make_settings(dropout=0.0)
        params = make_params(settings, dim_feature=8, seed=3)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 4, 8))
        latent, _ = fusion_forward(x, params, settings)

        h = nn.gelu(x @ params["ev_w1"] + params["ev_b1"])[0]
        raw = (h @ params["ev_w2"] + params["ev_b2"])[..., 0]
        evidence = np.exp(nn.softplus(raw))
        w = belief_weights(evidence).belief
        pooled = np.stack([pool(x[b], w[b], settings.fuse_eps) for b in range(2)])
        f_ev = pooled @ params["proj_w"] + params["proj_b"]
        scores = (x @ params["att_w"] + params["att_b"])[..., 0]
        alpha = nn.softmax(scores, axis=-1)
        f_att = np.einsum("bv,bvd->bd", alpha, x)
        f_fus = f_ev + f_att
        p2 = nn.gelu(f_fus @ params["pur_w1"] + params["pur_b1"])[0] @ params["pur_w2"] + params["pur_b2"]
        expected, _ = nn.layernorm_forward(
            f_fus + p2, params["ln_gain"], params["ln_bias"], settings.layernorm_eps
        )
        np.testing.assert_allclose(latent, expected, atol=1e-12)

    def test_zeroed_purifier_reduces_to_layernorm(self):
        settings = make_settings(dropout=0.0)
        params = make_params(settings, dim_feature=8, seed=4)
        params["pur_w2"] = np.zeros_like(params["pur_w2"])
        params["pur_b2"] = np.zeros_like(params["pur_b2"])
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 4, 8))
        latent, cache = fusion_forward(x, params, settings)
        expected, _ = nn.layernorm_forward(
            cache["f_fus"], params["ln_gain"], params["ln_bias"], settings.layernorm_eps
        )
        np.testing.assert_array_equal(latent, expected)

    def test_evidence_disabled_pools_uniformly(self):
        settings = make_settings(evidence=False, dropout=0.0)
        params = make_params(settings, dim_feature=8, seed=5)
        assert "ev_w1" not in params
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 4, 8))
        _, cache = fusion_forward(x, params, settings)
        np.testing.assert_array_equal(cache["weights"], np.ones((2, 4)))
        np.testing.assert_allclose(cache["pooled"], x.mean(axis=1), atol=1e-8)

    def test_view_permutation_leaves_evidential_branch_bit_identical(self):
        settings = make_settings(dropout=0.0)
        params = make_params(settings, dim_feature=8, seed=6)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 5, 8))
        _, cache = fusion_forward(x, params, settings)
        perm = rng.permutation(5)
        _, cache_p = fusion_forward(x[:, perm], params, settings)
        np.testing.assert_array_equal(cache_p["pooled"], cache["pooled"])

    def test_latent_projection_when_dims_differ(self):
        settings = make_settings(dim_latent=6)
        params = make_params(settings, dim_feature=8, seed=8)
        assert "att_proj_w" in params
        x = np.random.default_rng(18).standard_normal((2, 3, 8))
        latent, _ = fusion_forward(x, params, settings)
        assert latent.shape == (2, 6)

    def test_dropout_only_fires_in_train_mode(self):
        settings = make_settings(dropout=0.9)
        params = make_params(settings, dim_feature=8, seed=10)
        x = np.random.default_rng(20).standard_normal((2, 3, 8))
        a, _ = fusion_forward(x, params, settings)
        b, _ = fusion_forward(x, params, settings)
        np.testing.assert_array_equal(a, b)
        c, _ = fusion_forward(x, params, settings, np.random.default_rng(0))
        assert not np.array_equal(a, c)

    def test_overflowing_evidence_is_belief_one_without_a_warning(self):
        # exp(softplus(raw)) overflows to inf for raw above ~709; a warning
        # would fail this test (pyproject turns RuntimeWarning into an error)
        settings = make_settings()
        params = make_params(settings, dim_feature=8, seed=3)
        params["ev_b1"][:] = 1e3
        params["ev_w2"][:] = 1e3
        x = np.random.default_rng(4).standard_normal((2, 3, 8))
        latent, cache = fusion_forward(x, params, settings, np.random.default_rng(0))
        assert np.all(np.isinf(cache["state"].evidence))
        np.testing.assert_array_equal(cache["weights"], 1.0)
        grads = fusion_backward(np.ones_like(latent), cache, params, settings)
        assert all(np.all(np.isfinite(g)) for g in [latent, *grads.values()])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), softplus_only=st.booleans())
    def test_float32_extremes_give_no_nan_evidence(self, seed, softplus_only):
        # training stops before a parameter leaves float32's range, and
        # features are float32: at those extremes the evidence MLP's raw
        # output stays far below overflow, so the evidence is finite or +inf
        fusion_settings = make_settings(softplus_only=softplus_only)
        rng = np.random.default_rng(seed)
        big = float(np.finfo(np.float32).max)

        def extremes(shape):
            return big * rng.choice([-1.0, 0.0, 1.0], size=shape)

        params = {k: extremes(np.shape(v)) for k, v in make_params(fusion_settings, 8).items()}
        # the stages after the evidence may overflow; NaN evidence raises
        with np.errstate(over="ignore", invalid="ignore"):
            _, cache = fusion_forward(extremes((2, 3, 8)), params, fusion_settings, rng)
        assert not np.any(np.isnan(cache["state"].evidence))

    def test_bad_rank_rejected(self):
        settings = make_settings()
        params = make_params(settings, dim_feature=8)
        with pytest.raises(ValueError):
            fusion_forward(np.zeros((3, 8)), params, settings)


def _graph_loss(x, params, settings, probe, rng_seed=None):
    """Scalar readout sum(latent * probe); optional frozen dropout mask."""
    dropout_rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    latent, _ = fusion_forward(x, params, settings, dropout_rng)
    return float(np.sum(latent * probe))


@pytest.mark.parametrize("mode", ["eval", "train", "softplus_only", "no_evidence", "projected"])
def test_parameter_gradients_match_finite_differences(mode):
    overrides = {
        "eval": dict(dropout=0.0),
        "train": dict(dropout=0.2),
        "softplus_only": dict(dropout=0.0, softplus_only=True),
        "no_evidence": dict(dropout=0.0, evidence=False),
        "projected": dict(dropout=0.0, dim_latent=6),
    }[mode]
    settings = make_settings(**overrides)
    params = make_params(settings, dim_feature=8, seed=21)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 4, 8))
    latent_dim = settings.dim_latent
    probe = rng.standard_normal((3, latent_dim))
    rng_seed = 55 if mode == "train" else None

    dropout_rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    latent, cache = fusion_forward(x, params, settings, dropout_rng)
    grads = fusion_backward(probe, cache, params, settings)
    assert set(grads) == set(params)

    for name in sorted(params):
        def loss_of(value, name=name):
            probed = dict(params)
            probed[name] = value
            return _graph_loss(x, probed, settings, probe, rng_seed)

        fd = central_difference(loss_of, params[name], step=1e-5)
        err = relative_error(grads[name], fd)
        assert err < 1e-5, f"{mode}:{name} gradient off by {err:.2e}"
