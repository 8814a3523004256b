"""Evidence-weighted multi-view fusion with a purification head.

Pipeline per sample (features X of shape (views, dim)):

    evidence   e_v  = exp(softplus(mlp(x_v)))        (optionally no exp)
    belief     w_v  = 1 - 1 / (e_v + 1)
    pooled          = sum_v w_v x_v / (sum_v w_v + eps)
    F_evidence      = pooled @ proj + b
    F_att           = sum_v softmax(score(x_v)) x_v  (optional projection)
    F_fus           = F_evidence + F_att
    F_latent        = layernorm(F_fus + dropout(affine(gelu(affine(F_fus)))))

The pooled numerator and denominator are reduced with exactly rounded
summation, so permuting views together with their weights leaves
F_evidence bit-identical, not merely close.

Everything is differentiated by hand; `fusion_backward` returns parameter
gradients only (the image-side features are produced by a frozen encoder
and receive no gradient).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import nn
from .config import FusionConfig

__all__ = [
    "EvidenceState",
    "init_fusion_params",
    "belief_weights",
    "evidential_pool",
    "fusion_forward",
    "fusion_backward",
]


@dataclass(frozen=True)
class EvidenceState:
    """Per-view evidence and the Dirichlet-style quantities derived from it."""

    evidence: np.ndarray
    strength: np.ndarray  # evidence + 1
    uncertainty: np.ndarray  # 1 / strength
    belief: np.ndarray  # 1 - uncertainty


def init_fusion_params(
    settings: FusionConfig, dim_feature: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Fresh parameter dict. Weights are scaled Gaussians (1/sqrt(fan_in)),
    biases zero, layer-norm gain one. Keys are stable across runs; optional
    blocks (evidence head, attention projection) exist only when used."""

    def dense(rows, cols):
        return rng.standard_normal((rows, cols)) / np.sqrt(rows)

    params: dict[str, np.ndarray] = {}
    if settings.evidence:
        params["ev_w1"] = dense(dim_feature, settings.dim_hidden)
        params["ev_b1"] = np.zeros(settings.dim_hidden)
        params["ev_w2"] = dense(settings.dim_hidden, 1)
        params["ev_b2"] = np.zeros(1)
    params["proj_w"] = dense(dim_feature, settings.dim_latent)
    params["proj_b"] = np.zeros(settings.dim_latent)
    params["att_w"] = dense(dim_feature, 1)
    params["att_b"] = np.zeros(1)
    if settings.dim_latent != dim_feature:
        params["att_proj_w"] = dense(dim_feature, settings.dim_latent)
        params["att_proj_b"] = np.zeros(settings.dim_latent)
    params["pur_w1"] = dense(settings.dim_latent, settings.dim_bottleneck)
    params["pur_b1"] = np.zeros(settings.dim_bottleneck)
    params["pur_w2"] = dense(settings.dim_bottleneck, settings.dim_latent)
    params["pur_b2"] = np.zeros(settings.dim_latent)
    params["ln_gain"] = np.ones(settings.dim_latent)
    params["ln_bias"] = np.zeros(settings.dim_latent)
    return params


def belief_weights(evidence: np.ndarray) -> EvidenceState:
    """Dirichlet strength S = e + 1, epistemic uncertainty u = 1/S,
    belief w = 1 - u. u + w == 1 holds exactly in IEEE arithmetic."""
    e = np.asarray(evidence, dtype=np.float64)
    if np.any(np.isnan(e)) or np.any(e < 0):
        raise ValueError("evidence must be non-negative")
    strength = e + 1.0
    uncertainty = 1.0 / strength
    belief = 1.0 - uncertainty
    return EvidenceState(e, strength, uncertainty, belief)


def evidential_pool(features: np.ndarray, weights: np.ndarray, eps: float):
    """Belief-weighted mean over the view axis (exactly rounded sums).

    features: (..., V, d); weights: (..., V). Returns (pooled, den) with
    den = sum_v w_v + eps, which the backward pass reuses. All-zero
    weights yield the zero vector (the eps keeps den positive).
    """
    features = np.asarray(features, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    # one exact sum over [w x | w]: each column is reduced on its own, so
    # the numerator and the weight total are those of two separate sums
    w = weights[..., None]
    sums = nn.exact_sum(np.concatenate([w * features, w], axis=-1), axis=-2)
    den = sums[..., -1] + eps
    return sums[..., :-1] / den[..., None], den


def fusion_forward(
    features: np.ndarray,
    params: dict,
    settings: FusionConfig,
    dropout_rng: np.random.Generator | None = None,
):
    """Batched forward pass.

    features: (B, V, d) frozen view features. Returns (latent, cache)
    where latent is (B, dim_latent). A generator makes it a train-mode
    pass: dropout draws its mask from `dropout_rng`, so a fixed generator
    state makes the pass deterministic (finite-difference checks rely on
    this). Without one, dropout is off (eval mode).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, views, dim) features, got shape {x.shape}")
    cache: dict = {"x": x}

    if settings.evidence:
        h1 = nn.affine_forward(x, params["ev_w1"], params["ev_b1"])
        a1, h1_erf = nn.gelu(h1)
        raw = nn.affine_forward(a1, params["ev_w2"], params["ev_b2"])[..., 0]
        sp = nn.softplus(raw)
        evidence = sp if settings.softplus_only else np.exp(sp)
        state = belief_weights(evidence)
        weights = state.belief
        cache.update(h1=h1, h1_erf=h1_erf, a1=a1, raw=raw, state=state)
    else:
        weights = np.ones(x.shape[:2])
    cache["weights"] = weights

    pooled, den = evidential_pool(x, weights, settings.fuse_eps)
    f_ev = nn.affine_forward(pooled, params["proj_w"], params["proj_b"])
    cache.update(den=den, pooled=pooled)

    scores = nn.affine_forward(x, params["att_w"], params["att_b"])[..., 0]
    alpha = nn.softmax(scores, axis=-1)
    att_raw = np.einsum("bv,bvd->bd", alpha, x)
    if "att_proj_w" in params:
        f_att = nn.affine_forward(att_raw, params["att_proj_w"], params["att_proj_b"])
    else:
        f_att = att_raw
    cache.update(alpha=alpha, att_raw=att_raw)

    f_fus = f_ev + f_att
    p1 = nn.affine_forward(f_fus, params["pur_w1"], params["pur_b1"])
    g1, p1_erf = nn.gelu(p1)
    p2 = nn.affine_forward(g1, params["pur_w2"], params["pur_b2"])
    if dropout_rng is not None and settings.dropout > 0.0:
        mask = nn.dropout_mask(p2.shape, settings.dropout, dropout_rng)
        dropped = p2 * mask
    else:
        mask = None
        dropped = p2
    residual = f_fus + dropped
    latent, ln_cache = nn.layernorm_forward(
        residual, params["ln_gain"], params["ln_bias"], settings.layernorm_eps
    )
    cache.update(f_fus=f_fus, p1=p1, p1_erf=p1_erf, g1=g1, mask=mask, ln_cache=ln_cache)
    return latent, cache


def fusion_backward(
    grad_latent: np.ndarray, cache: dict, params: dict, settings: FusionConfig
) -> dict[str, np.ndarray]:
    """Parameter gradients for a `fusion_forward` pass (features are frozen)."""
    x = cache["x"]
    grads: dict[str, np.ndarray] = {}

    g_res, grads["ln_gain"], grads["ln_bias"] = nn.layernorm_backward(
        grad_latent, cache["ln_cache"], params["ln_gain"]
    )
    g_fus = g_res.copy()
    g_p2 = g_res if cache["mask"] is None else g_res * cache["mask"]
    g_g1, grads["pur_w2"], grads["pur_b2"] = nn.affine_backward(
        g_p2, cache["g1"], params["pur_w2"]
    )
    g_p1 = g_g1 * nn.gelu_grad(cache["p1"], cache["p1_erf"])
    g_into_fus, grads["pur_w1"], grads["pur_b1"] = nn.affine_backward(
        g_p1, cache["f_fus"], params["pur_w1"]
    )
    g_fus += g_into_fus

    # attention branch
    if "att_proj_w" in params:
        g_att_raw, grads["att_proj_w"], grads["att_proj_b"] = nn.affine_backward(
            g_fus, cache["att_raw"], params["att_proj_w"]
        )
    else:
        g_att_raw = g_fus
    alpha = cache["alpha"]
    g_alpha = np.einsum("bd,bvd->bv", g_att_raw, x)
    g_scores = alpha * (g_alpha - np.sum(alpha * g_alpha, axis=-1, keepdims=True))
    _, grads["att_w"], grads["att_b"] = nn.affine_backward(
        g_scores[..., None], x, params["att_w"]
    )

    # evidential branch
    g_pooled, grads["proj_w"], grads["proj_b"] = nn.affine_backward(
        g_fus, cache["pooled"], params["proj_w"]
    )
    if settings.evidence:
        den = cache["den"]
        g_w = (
            np.einsum("bd,bvd->bv", g_pooled, x)
            - np.sum(g_pooled * cache["pooled"], axis=-1, keepdims=True)
        ) / den[:, None]
        state = cache["state"]
        # dw/d(softplus) stays bounded even when the evidence overflows:
        # exp mode: w * u = e / (e + 1)^2; softplus-only mode: u^2.
        if settings.softplus_only:
            g_sp = g_w * state.uncertainty * state.uncertainty
        else:
            g_sp = g_w * state.belief * state.uncertainty
        g_raw = g_sp * expit(cache["raw"])
        g_a1, grads["ev_w2"], grads["ev_b2"] = nn.affine_backward(
            g_raw[..., None], cache["a1"], params["ev_w2"]
        )
        g_h1 = g_a1 * nn.gelu_grad(cache["h1"], cache["h1_erf"])
        _, grads["ev_w1"], grads["ev_b1"] = nn.affine_backward(g_h1, x, params["ev_w1"])
    return grads
