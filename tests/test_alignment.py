"""Contrastive loss properties, analytic gradients, optimizer, trainer."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DictAdamW, central_difference, fsum_along, generate_and_load, relative_error, tiny_bank,
    tiny_config,
)
from fovalign import alignment, fusion, nn
from fovalign.alignment import (
    AdamW,
    Trainer,
    batch_gradients,
    cosine_similarity_matrix,
    encode_pairs,
    init_parameters,
    loss_and_gradients,
)
from fovalign.errors import ConfigError, NumericError
from fovalign.providers import BankProvider, SyntheticProvider


def brute_force_cosine(a, b):
    out = np.empty((len(a), len(b)))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i, j] = float(u @ v) / max(np.linalg.norm(u) * np.linalg.norm(v), 1e-24)
    return out


def fsum_cosine(a, b, floor=1e-12):
    """Reference cosine with every dot and norm exactly rounded by math.fsum."""
    na = np.maximum(np.sqrt(fsum_along(a * a, -1)), floor)
    nb = np.maximum(np.sqrt(fsum_along(b * b, -1)), floor)
    dots = fsum_along(a[:, None, :] * b[None, :, :], -1)
    return dots / (na[:, None] * nb[None, :])


def _feature_pair(seed, rows_a, rows_b, dim):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows_a, dim)) * rng.uniform(0.01, 100.0, size=(rows_a, 1))
    b = rng.standard_normal((rows_b, dim)) * rng.uniform(0.01, 100.0, size=(rows_b, 1))
    return a, b


_pairs = st.builds(
    _feature_pair,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows_a=st.integers(min_value=1, max_value=9),
    rows_b=st.integers(min_value=1, max_value=9),
    dim=st.integers(min_value=1, max_value=140),
)


@settings(max_examples=60, deadline=None)
@given(pair=_pairs, rows_per_block=st.integers(min_value=1, max_value=4))
def test_blocked_cosine_is_transpose_exact_and_block_free(pair, rows_per_block):
    # blocks of 1-4 rows leave a ragged last block for most row counts
    a, b = pair
    whole = cosine_similarity_matrix(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alignment, "DOT_BLOCK_ELEMS", rows_per_block * b.size)
        forward = cosine_similarity_matrix(a, b)
        mp.setattr(alignment, "DOT_BLOCK_ELEMS", rows_per_block * a.size)
        swapped = cosine_similarity_matrix(b, a)
        mp.setattr(alignment, "DOT_BLOCK_ELEMS", 1)
        row_by_row = cosine_similarity_matrix(a, b)
    np.testing.assert_array_equal(forward, swapped.T)
    np.testing.assert_array_equal(forward, whole)
    np.testing.assert_array_equal(row_by_row, whole)


@settings(max_examples=60, deadline=None)
@given(pair=_pairs)
def test_cosine_agrees_with_fsum_oracle(pair):
    a, b = pair
    np.testing.assert_allclose(cosine_similarity_matrix(a, b), fsum_cosine(a, b), rtol=0, atol=1e-15)


class TestCosineMatrix:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((9, 5))
        np.testing.assert_allclose(
            cosine_similarity_matrix(a, b), brute_force_cosine(a, b), atol=1e-12
        )

    def test_swap_is_exact_transpose(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 8))
        b = rng.standard_normal((6, 8))
        np.testing.assert_array_equal(
            cosine_similarity_matrix(a, b), cosine_similarity_matrix(b, a).T
        )

    def test_self_similarity_diagonal_one(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 4))
        np.testing.assert_allclose(
            np.diagonal(cosine_similarity_matrix(a, a)), 1.0, rtol=1e-12
        )

    def test_zero_rows_survive_via_norm_floor(self):
        a = np.zeros((2, 3))
        b = np.ones((2, 3))
        sim = cosine_similarity_matrix(a, b)
        assert np.all(np.isfinite(sim))
        np.testing.assert_array_equal(sim, np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity_matrix(np.zeros((2, 3)), np.zeros((2, 4)))


def traced_peak(fn):
    """(result, bytes): fn() and the peak of traced allocations above the
    traced total at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_cosine_peak_is_the_result_and_one_block():
    # the normalisation divides the dot matrix in place, so no second
    # matrix-sized array (the outer product of the norms) is made
    a, b = _feature_pair(3, 1000, 1000, 64)
    cos, peak = traced_peak(lambda: cosine_similarity_matrix(a, b))
    assert peak <= cos.nbytes + alignment.DOT_BLOCK_ELEMS * 8 + 64 * 1024


class TestSymmetricLoss:
    def test_orthonormal_pair_closed_form(self):
        # B=2 with orthonormal, perfectly aligned rows at tau=1:
        # each row of Z is (1, 0) up to ordering, so every cross-entropy
        # term is log(1 + e^{-1})
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, logits = loss_and_gradients(f, f, 0.0)[:2]  # tau = 1
        np.testing.assert_allclose(loss, math.log(1.0 + math.exp(-1.0)), atol=1e-6)
        np.testing.assert_array_equal(logits, np.eye(2))

    def test_modality_swap_bit_identical(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            f_n = rng.standard_normal((5, 7))
            f_v = rng.standard_normal((5, 7))
            tau = float(rng.uniform(0.05, 1.0))
            loss_ab, z_ab = loss_and_gradients(f_n, f_v, math.log(tau))[:2]
            loss_ba, z_ba = loss_and_gradients(f_v, f_n, math.log(tau))[:2]
            assert loss_ab == loss_ba, f"trial {trial}"
            np.testing.assert_array_equal(z_ab, z_ba.T)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(4)
        f_n = rng.standard_normal((8, 6))
        f_v = rng.standard_normal((8, 6))
        base, _ = loss_and_gradients(f_n, f_v, math.log(0.2))[:2]
        for _ in range(10):
            perm = rng.permutation(8)
            permuted, _ = loss_and_gradients(f_n[perm], f_v[perm], math.log(0.2))[:2]
            assert abs(permuted - base) <= 1e-9

    def test_per_row_rescale_invariance(self):
        rng = np.random.default_rng(5)
        f_n = rng.standard_normal((6, 5))
        f_v = rng.standard_normal((6, 5))
        base, _ = loss_and_gradients(f_n, f_v, math.log(0.3))[:2]
        scales_n = rng.uniform(0.1, 10.0, size=(6, 1))
        scales_v = rng.uniform(0.1, 10.0, size=(6, 1))
        scaled, _ = loss_and_gradients(f_n * scales_n, f_v * scales_v, math.log(0.3))[:2]
        assert abs(scaled - base) <= 1e-6

    def test_perfect_alignment_beats_misalignment(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((4, 8))
        aligned, _ = loss_and_gradients(f, f, math.log(0.1))[:2]
        shuffled, _ = loss_and_gradients(f, np.roll(f, 1, axis=0), math.log(0.1))[:2]
        assert aligned < shuffled

    def test_feature_shapes_must_match(self):
        with pytest.raises(ValueError, match=r"feature shapes differ: \(2, 3\) vs \(2, 4\)"):
            loss_and_gradients(np.ones((2, 3)), np.ones((2, 4)), 0.0)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            loss_and_gradients(np.ones((1, 3)), np.ones((1, 3)), 0.0)

    def test_nonpositive_temperature_rejected(self):
        f = np.eye(2)
        with pytest.raises(ValueError):
            loss_and_gradients(f, f, float("-inf"))  # tau = exp(-inf) = 0
        with pytest.raises(ValueError):
            loss_and_gradients(f, f, float("nan"))


class TestLossGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            gen = np.random.default_rng(100 + seed)
            f_n = gen.standard_normal((4, 6))
            f_v = gen.standard_normal((4, 6))
            log_tau = float(gen.uniform(-2.5, 0.0))
            loss, _, d_f_n, d_f_v, d_log_tau = loss_and_gradients(f_n, f_v, log_tau)

            fd_n = central_difference(
                lambda v: loss_and_gradients(v, f_v, log_tau)[0], f_n
            )
            fd_v = central_difference(
                lambda v: loss_and_gradients(f_n, v, log_tau)[0], f_v
            )
            fd_tau = central_difference(
                lambda v: loss_and_gradients(f_n, f_v, float(v))[0],
                np.array(log_tau),
            )
            assert relative_error(d_f_n, fd_n) < 1e-5
            assert relative_error(d_f_v, fd_v) < 1e-5
            assert relative_error(np.array(d_log_tau), fd_tau) < 1e-5

    def test_gradient_zero_only_at_uniform_logits(self):
        # equal similarities everywhere: softmax rows/cols are uniform and
        # the two correction terms cancel on average but not per entry
        f = np.ones((3, 4))
        loss, _, d_f_n, d_f_v, _ = loss_and_gradients(f, f, 0.0)
        np.testing.assert_allclose(loss, math.log(3.0), rtol=1e-12)
        np.testing.assert_allclose(d_f_n, 0.0, atol=1e-12)
        np.testing.assert_allclose(d_f_v, 0.0, atol=1e-12)

    def test_norm_floor_region_has_no_radial_blowup(self):
        f_n = np.zeros((2, 3))
        f_n[0, 0] = 1.0
        f_v = np.ones((2, 3))
        loss, _, d_f_n, d_f_v, _ = loss_and_gradients(f_n, f_v, 0.0)
        assert np.all(np.isfinite(d_f_n)) and np.all(np.isfinite(d_f_v))


ADAM = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


class TestAdamW:
    def test_zero_learning_rate_freezes_parameters(self):
        params = {"w": np.ones((2, 2)), "b": np.zeros(2)}
        opt = AdamW(params, lr=0.0, weight_decay=0.5, **ADAM)
        opt.step({"w": np.ones((2, 2)), "b": np.ones(2)})
        for k in params:
            np.testing.assert_array_equal(opt.params[k], params[k])

    def test_first_step_magnitude_is_learning_rate(self):
        # with bias correction the first Adam update is lr * sign(g)
        opt = AdamW({"w": np.zeros((3, 3))}, lr=0.01, weight_decay=0.0, **ADAM)
        g = np.random.default_rng(8).standard_normal((3, 3))
        opt.step({"w": g})
        np.testing.assert_allclose(np.abs(opt.params["w"]), 0.01, rtol=1e-6)
        np.testing.assert_array_equal(np.sign(opt.params["w"]), -np.sign(g))

    def test_decay_skips_vectors_and_scalars(self):
        params = {"w": np.full((2, 2), 10.0), "b": np.full(2, 10.0), "s": np.array(10.0)}
        opt = AdamW(params, lr=0.001, weight_decay=0.1, **ADAM)
        opt.step({k: np.zeros_like(v) for k, v in params.items()})
        # zero gradient: the only movement comes from decoupled decay
        assert np.all(opt.params["w"] < 10.0)
        np.testing.assert_array_equal(opt.params["b"], np.full(2, 10.0))
        np.testing.assert_array_equal(opt.params["s"], np.array(10.0))

    def test_descends_a_quadratic(self):
        opt = AdamW({"w": np.array([[5.0]])}, lr=0.1, weight_decay=0.0, **ADAM)
        for _ in range(200):
            opt.step({"w": 2.0 * opt.params["w"]})
        assert abs(opt.params["w"][0, 0]) < 0.5


_GROUP_SHAPES = st.sampled_from([(), (1,), (5,), (1, 1), (3, 4), (7, 2)])


class TestFlatAdamW:
    """The one-buffer AdamW against the per-group oracle, bit for bit."""

    @staticmethod
    def bits(arrays) -> dict:
        return {k: np.asarray(v, dtype=np.float64).view(np.int64).tolist()
                for k, v in arrays.items()}

    @given(
        shapes=st.lists(_GROUP_SHAPES, min_size=1, max_size=6),
        weight_decay=st.sampled_from([0.0, 0.01, 0.5]),
        lr=st.sampled_from([0.0, 1e-4, 3e-3, 0.1]),
        steps=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_group_oracle(self, shapes, weight_decay, lr, steps, seed):
        rng = np.random.default_rng(seed)
        # names out of sorted order, so the buffer's layout differs from the dict's
        names = [f"g{len(shapes) - i}" for i in range(len(shapes))]

        def draw(shape):
            return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 4)

        params = {n: draw(s) for n, s in zip(names, shapes)}
        given_bits = self.bits(params)
        oracle_params = {n: p.copy() for n, p in params.items()}
        flat = AdamW(params, lr=lr, beta1=0.8, beta2=0.99, eps=1e-8, weight_decay=weight_decay)
        oracle = DictAdamW(oracle_params, lr=lr, beta1=0.8, beta2=0.99, eps=1e-8,
                           weight_decay=weight_decay)
        for _ in range(steps):
            grads = {n: draw(s) for n, s in zip(names, shapes)}
            grads[names[0]] = np.zeros(shapes[0])  # a group at rest
            flat.step(grads)
            oracle.step(oracle_params, grads)
            assert self.bits(flat.params) == self.bits(oracle_params)
        # the constructor copied the caller's dict and left it as it was
        assert self.bits(params) == given_bits
        assert not any(np.shares_memory(params[n], flat.params_flat) for n in names)

    def test_params_cannot_be_rebound_but_take_in_place_writes(self):
        flat = AdamW({"w": np.ones((2, 2)), "b": np.zeros(3)}, lr=0.1, weight_decay=0.1, **ADAM)
        with pytest.raises(TypeError):
            flat.params["b"] = np.full(3, 2.0)
        flat.params["b"][...] = 2.0
        np.testing.assert_array_equal(flat.params_flat, [1.0] * 4 + [2.0] * 3)

    def test_weight_matrices_lead_the_buffer(self):
        params = {"a": np.zeros(2), "w": np.ones((2, 3)), "s": np.array(4.0), "v": np.ones((1, 1))}
        flat = AdamW(params, lr=0.1, weight_decay=0.0, **ADAM)
        np.testing.assert_array_equal(flat.params_flat, [1.0] * 7 + [0.0, 0.0, 4.0])
        assert flat.params["s"].shape == () and flat.params["w"].shape == (2, 3)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    config = tiny_config()
    bank, images = generate_and_load(config, tmp_path_factory.mktemp("tiny_run"))
    return config, bank, images


class TestTrainer:
    def test_loss_improves_from_initialization(self, tiny_run):
        # strict monotone descent is only promised on the larger smoke
        # dataset (see test_acceptance); this tiny one is noisy, so just
        # require a real improvement over the first epoch
        config, bank, images = tiny_run
        config = dataclasses.replace(
            config,
            training=dataclasses.replace(config.training, epochs=5),
        )
        provider = SyntheticProvider(
            config.transforms, config.views, config.provider.dim_feature,
            config.provider.seed, images,
        )
        trainer = Trainer(config, bank, provider)
        reports = trainer.train()
        losses = [r.loss for r in reports]
        assert len(losses) == 5
        assert all(np.isfinite(losses))
        assert losses[1] < losses[0]
        assert min(losses) < losses[0] - 0.1

    def test_epoch_zero_checkpoint_is_initialization(self, tiny_run):
        config, bank, images = tiny_run
        config = dataclasses.replace(
            config, training=dataclasses.replace(config.training, epochs=0)
        )
        provider = BankProvider(bank)
        cfg_bank = dataclasses.replace(
            config, provider=dataclasses.replace(config.provider, kind="bank")
        )
        trainer = Trainer(cfg_bank, bank, provider)
        trainer.train()
        fresh = init_parameters(cfg_bank, bank.dim_neural)
        assert set(trainer.params) == set(fresh)
        for k in fresh:
            np.testing.assert_array_equal(trainer.params[k], fresh[k])

    def test_training_is_deterministic(self, tiny_run):
        config, bank, images = tiny_run
        cfg = dataclasses.replace(
            config,
            training=dataclasses.replace(config.training, epochs=2),
            provider=dataclasses.replace(config.provider, kind="bank"),
        )
        runs = []
        for _ in range(2):
            trainer = Trainer(cfg, bank, BankProvider(bank))
            trainer.train()
            runs.append({k: v.copy() for k, v in trainer.params.items()})
        for k in runs[0]:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])

    def test_regulation_moves_kernels(self, tiny_run):
        config, bank, images = tiny_run
        cfg = dataclasses.replace(
            config,
            training=dataclasses.replace(config.training, epochs=3),
            provider=dataclasses.replace(config.provider, kind="bank"),
        )
        trainer = Trainer(cfg, bank, BankProvider(bank))
        reports = trainer.train()
        hist = reports[-1].kernel_hist
        assert sum(hist.values()) == len(bank.indices("train"))
        assert all(k % 2 == 1 for k in hist)  # parity preserved
        # feedback must have moved at least one kernel off the start value
        assert set(hist) != {cfg.transforms.kernel_size}

    def test_regulator_disabled_keeps_kernels_fixed(self, tiny_run):
        config, bank, images = tiny_run
        cfg = dataclasses.replace(
            config,
            training=dataclasses.replace(config.training, epochs=2),
            provider=dataclasses.replace(config.provider, kind="bank"),
            regulator=dataclasses.replace(config.regulator, enabled=False),
        )
        trainer = Trainer(cfg, bank, BankProvider(bank))
        reports = trainer.train()
        assert reports[-1].kernel_hist == {cfg.transforms.kernel_size: len(trainer.train_ids)}

    def test_zero_learning_rate_freezes_everything(self, tiny_run):
        # with frozen parameters, a deterministic feature source (bank), no
        # dropout, and a single full batch (the loss ignores sample order)
        # the epoch loss cannot move
        config, bank, images = tiny_run
        n_train = len(bank.indices("train"))
        cfg = dataclasses.replace(
            config,
            training=dataclasses.replace(
                config.training, epochs=2, learning_rate=0.0, batch_size=n_train,
            ),
            fusion=dataclasses.replace(config.fusion, dropout=0.0),
            provider=dataclasses.replace(config.provider, kind="bank"),
        )
        trainer = Trainer(cfg, bank, BankProvider(bank))
        fresh = init_parameters(cfg, bank.dim_neural)
        reports = trainer.train()
        for k in fresh:
            np.testing.assert_array_equal(trainer.params[k], fresh[k])
        assert reports[0].loss == pytest.approx(reports[1].loss, abs=1e-9)

    def test_batch_size_larger_than_split_rejected(self, tiny_run):
        config, bank, images = tiny_run
        cfg = dataclasses.replace(
            config,
            training=dataclasses.replace(config.training, batch_size=4096),
        )
        with pytest.raises(ConfigError):
            Trainer(cfg, bank, BankProvider(bank))

    def test_step_applies_batch_gradients(self, tiny_run, monkeypatch):
        # batch 0 of epoch 0 starts from the initial parameters, so the
        # gradients it hands the optimizer are those of `batch_gradients`
        # on its features with the trainer's (seed, 2, epoch, batch) stream
        config, bank, _ = tiny_run
        cfg = dataclasses.replace(
            config, provider=dataclasses.replace(config.provider, kind="bank")
        )
        assert cfg.fusion.dropout > 0.0
        provider = BankProvider(bank)
        trainer = Trainer(cfg, bank, provider)
        batches, steps = [], []
        features, step = provider.features, trainer.optimizer.step

        def recording_features(ids, *args):
            batches.append((ids, features(ids, *args)))
            return batches[-1][1]

        def recording_step(grads):
            steps.append(grads)
            step(grads)

        monkeypatch.setattr(provider, "features", recording_features)
        monkeypatch.setattr(trainer.optimizer, "step", recording_step)
        trainer.train_epoch(0)
        ids, feats = batches[0]
        rng = np.random.default_rng(np.random.SeedSequence((cfg.training.seed, 2, 0, 0)))
        params = init_parameters(cfg, bank.dim_neural)
        _, _, want = batch_gradients(params, feats, bank.neural[ids], cfg.fusion, rng)
        assert set(steps[0]) == set(want)
        for k in want:
            np.testing.assert_array_equal(steps[0][k], want[k], err_msg=k)

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_log_tau_stays_clamped(self, tiny_run):
        # deliberately absurd learning rate: evidence may saturate to inf
        # (weight -> 1, its correct limit) but tau must stay in bounds
        config, bank, images = tiny_run
        cfg = dataclasses.replace(
            config,
            training=dataclasses.replace(
                config.training, epochs=2, learning_rate=5.0,
            ),
            provider=dataclasses.replace(config.provider, kind="bank"),
        )
        trainer = Trainer(cfg, bank, BankProvider(bank))
        trainer.train()
        tau = math.exp(float(trainer.params["log_tau"]))
        assert cfg.training.temperature_min - 1e-12 <= tau <= cfg.training.temperature_max + 1e-12


class TestNumericGuard:
    def _trainer(self, tiny_run):
        config, bank, _ = tiny_run
        cfg = dataclasses.replace(
            config, provider=dataclasses.replace(config.provider, kind="bank")
        )
        return Trainer(cfg, bank, BankProvider(bank))

    def test_non_finite_loss_stops_before_the_step(self, tiny_run, monkeypatch):
        trainer = self._trainer(tiny_run)
        before = trainer.optimizer.params_flat.copy()
        loss_and_grads = alignment.loss_and_gradients

        def nan_loss(*args):
            return (math.nan, *loss_and_grads(*args)[1:])

        monkeypatch.setattr(alignment, "loss_and_gradients", nan_loss)
        with pytest.raises(NumericError, match="^non-finite loss at epoch 0, batch 0$") as exc:
            trainer.train_epoch(0)
        assert exc.value.state["loss"] == "nan"
        assert trainer.optimizer.t == 0
        np.testing.assert_array_equal(trainer.optimizer.params_flat, before)

    # a checkpoint stores float32, so a parameter that float64 holds but
    # float32 does not stops the run too
    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e308, -3.5e38])
    def test_parameter_outside_float32_named(self, tiny_run, monkeypatch, value):
        trainer = self._trainer(tiny_run)
        step = trainer.optimizer.step

        def corrupting(grads):
            step(grads)
            # in place, as AdamW writes: the entry is a view of its buffer
            trainer.params["proj_b"][1] = value

        monkeypatch.setattr(trainer.optimizer, "step", corrupting)
        with pytest.raises(NumericError, match="parameter proj_b outside the float32 range at epoch 0, batch 0") as exc:
            trainer.train_epoch(0)
        assert exc.value.state["non_finite"] == {"kind": "parameter", "group": "proj_b"}

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
    def test_infinite_gradient_named_before_its_parameter(self, tiny_run, monkeypatch):
        trainer = self._trainer(tiny_run)
        backward = alignment.fusion.fusion_backward

        def poisoned(*args, **kwargs):
            grads = backward(*args, **kwargs)
            grads["ln_gain"] = np.full_like(grads["ln_gain"], np.inf)
            return grads

        monkeypatch.setattr(alignment.fusion, "fusion_backward", poisoned)
        with pytest.raises(NumericError, match="non-finite gradient of ln_gain") as exc:
            trainer.train_epoch(0)
        assert exc.value.state["non_finite"] == {"kind": "gradient", "group": "ln_gain"}
        assert not np.all(np.isfinite(trainer.params["ln_gain"]))


def bank_for(config, n: int):
    """A random bank of n test samples with the views, features and levels of `config`."""
    return tiny_bank(config.data.bank_levels, n, config.views.count, config.provider.dim_feature,
                     test_from=0)


def one_pass(config, bank, provider, params, ids):
    """encode_pairs as one provider call and one fusion pass over all ids."""
    kernels = [config.transforms.kernel_size] * len(ids)
    feats = provider.features(ids, kernels, config.evaluation.seed, 0)
    latent = fusion.fusion_forward(feats, params, config.fusion)[0]
    return nn.affine_forward(bank.neural[ids], params["enc_w"], params["enc_b"]), latent


class TestEncodePairs:
    def test_deterministic_and_shaped(self, tiny_run):
        config, bank, images = tiny_run
        provider = SyntheticProvider(
            config.transforms, config.views, config.provider.dim_feature,
            config.provider.seed, images,
        )
        params = init_parameters(config, bank.dim_neural)
        ids = bank.indices("test")
        config = dataclasses.replace(
            config, evaluation=dataclasses.replace(config.evaluation, seed=7)
        )
        f_n, latent = encode_pairs(config, bank, provider, params, ids)
        assert f_n.shape == (len(ids), config.fusion.dim_latent)
        assert latent.shape == (len(ids), config.fusion.dim_latent)
        f_n2, latent2 = encode_pairs(config, bank, provider, params, ids)
        np.testing.assert_array_equal(f_n, f_n2)
        np.testing.assert_array_equal(latent, latent2)

    def test_bank_replay_matches_live_encoding(self, tiny_run):
        # the bank was precomputed by the same encoder, so replaying it at a
        # stored level with the bank's own noise seeding must reproduce the
        # live pipeline up to the bank's float32 storage
        config, bank, images = tiny_run
        params = init_parameters(config, bank.dim_neural)
        ids = bank.indices("test")[:3]
        synth = SyntheticProvider(
            config.transforms, config.views, config.provider.dim_feature,
            config.provider.seed, images,
        )
        config = dataclasses.replace(
            config,
            transforms=dataclasses.replace(config.transforms, kernel_size=bank.kernel_levels[0]),
            evaluation=dataclasses.replace(config.evaluation, seed=config.data.seed + 4),
        )
        f_n_bank, latent_bank = encode_pairs(config, bank, BankProvider(bank), params, ids)
        f_n_live, latent_live = encode_pairs(config, bank, synth, params, ids)
        np.testing.assert_array_equal(f_n_bank, f_n_live)
        np.testing.assert_allclose(latent_bank, latent_live, atol=1e-5)

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 127, 128, 129])
    def test_bank_provider_equals_one_fusion_pass(self, n):
        # encode_pairs fuses 64 queries at a time (a one-row tail joins the
        # block before); every boundary and tail must give the bits and
        # shapes of one pass, at any BLAS thread count
        config = tiny_config()
        bank = bank_for(config, 130)
        params = init_parameters(config, bank.dim_neural)
        ids = np.arange(n, dtype=np.int64)
        f_n, latent = encode_pairs(config, bank, BankProvider(bank), params, ids)
        f_n_ref, latent_ref = one_pass(config, bank, BankProvider(bank), params, ids)
        np.testing.assert_array_equal(f_n, f_n_ref)
        np.testing.assert_array_equal(latent, latent_ref)

    def test_synthetic_provider_equals_one_fusion_pass(self, tiny_run):
        # two blocks, the second of 36 rows; ids repeat past the 44 samples,
        # so the second block also reuses the provider's cached rows
        config, bank, images = tiny_run
        params = init_parameters(config, bank.dim_neural)
        ids = np.arange(100, dtype=np.int64) % bank.sample_count

        def provider():
            return SyntheticProvider(config.transforms, config.views, config.provider.dim_feature,
                                     config.provider.seed, images)

        f_n, latent = encode_pairs(config, bank, provider(), params, ids)
        f_n_ref, latent_ref = one_pass(config, bank, provider(), params, ids)
        np.testing.assert_array_equal(f_n, f_n_ref)
        np.testing.assert_array_equal(latent, latent_ref)

    def test_peak_grows_by_the_outputs_alone(self):
        # a fusion cache per query would grow the peak by many times the
        # two (n, dim_latent) outputs. The 1 KiB per block is CPython's: the
        # small tuples a fusion pass frees go on free lists that tracemalloc
        # counts as live (about 96 bytes per block here)
        config = tiny_config()
        bank = bank_for(config, 1024)
        provider = BankProvider(bank)
        params = init_parameters(config, bank.dim_neural)
        peaks = {}
        for n in (256, 1024):
            ids = np.arange(n, dtype=np.int64)
            encode_pairs(config, bank, provider, params, ids)  # warm any lazy state
            (f_n, latent), peaks[n] = traced_peak(
                lambda: encode_pairs(config, bank, provider, params, ids))
        per_query = (f_n.nbytes + latent.nbytes) // 1024
        assert peaks[1024] - peaks[256] <= per_query * (1024 - 256) + 1024 * (1024 - 256) // 64
