"""Release gate: one test per shipped guarantee, with pinned tolerances.

Each criterion below is a single test function, so `pytest -v` prints one
pass/fail line per criterion; every test also prints its measured
statistic (visible with -s, or in the captured output on failure).
Budgeted criteria time themselves with perf_counter and fail when over.
"""

import csv
import dataclasses
import filecmp
import json
import math
import time

import numpy as np
import scipy.ndimage

from conftest import (
    central_difference, every_other_column, generate_and_load, relative_error, tiny_config,
)
from fovalign import fusion, nn
from fovalign.alignment import batch_gradients, init_parameters, loss_and_gradients
from fovalign.cli import main
from fovalign.config import ablation_ladder, config_from_dict, config_hash
from fovalign.evaluation import _beats, _ranks_among_draws
from fovalign.providers import SyntheticProvider
from fovalign.regulator import BlurSchedule, confidence_bounds
from fovalign.transforms import foveation_mask, gaussian_blur, gaussian_kernel


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_transform_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    mask = foveation_mask(9, 9, center=(4, 4), gamma=2.0)
    center_exact = mask[4, 4] == 1.0

    image = rng.random((3, 8, 8))
    identity_exact = np.array_equal(gaussian_blur(image, 1), image)

    constant = np.full((3, 8, 8), 0.37)
    constant_dev = float(np.abs(gaussian_blur(constant, 9) - constant).max())

    # independent dense oracle: two separable correlate1d passes with
    # edge-repeating reflection, straight from scipy
    worst = 0.0
    for _ in range(100):
        img = rng.random((3, 8, 8))
        k = int(rng.choice([3, 5, 7, 9, 11, 13]))
        kernel = gaussian_kernel(k)
        want = scipy.ndimage.correlate1d(img, kernel, axis=1, mode="reflect")
        want = scipy.ndimage.correlate1d(want, kernel, axis=2, mode="reflect")
        worst = max(worst, float(np.abs(gaussian_blur(img, k) - want).max()))

    elapsed = time.perf_counter() - start
    ok = (
        center_exact and identity_exact
        and constant_dev <= 1e-6 and worst <= 1e-5 and elapsed < 10.0
    )
    _verdict(
        1, "transform suite", ok,
        f"center_exact={center_exact} identity_exact={identity_exact} "
        f"constant_dev={constant_dev:.2e} oracle_max={worst:.2e} "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_2_evidence_math():
    rng = np.random.default_rng(77)
    evidence = np.unique(10.0 ** rng.uniform(-6, 6, size=10_000))
    state = fusion.belief_weights(evidence)

    monotone = bool(np.all(np.diff(state.belief) > 0))
    complement_exact = bool(np.all(state.uncertainty + state.belief == 1.0))

    feats = rng.standard_normal((4, 6))
    pooled, _ = fusion.evidential_pool(feats, np.full(4, 0.5), eps=1e-8)
    mean_dev = float(
        np.abs(pooled - feats.mean(axis=0)).max() / np.abs(feats.mean(axis=0)).max()
    )

    ok = monotone and complement_exact and mean_dev <= 2e-8
    _verdict(
        2, "evidence math", ok,
        f"monotone={monotone} over {evidence.size} values, "
        f"u+w exact={complement_exact}, equal-weight mean dev={mean_dev:.2e}",
    )


def test_criterion_3_gradient_checks():
    # the trainer's own step, `batch_gradients`, in eval mode and in train
    # mode, where a fresh generator of one seed gives every evaluation of
    # the loss the same dropout mask
    start = time.perf_counter()
    cfg = config_from_dict({
        "provider": {"dim_feature": 8},
        "fusion": {"dim_latent": 8, "dim_hidden": 8, "dim_bottleneck": 4},
        "data": {"dim_neural": 8},
    })
    assert cfg.fusion.dropout > 0.0

    worst = {"eval": 0.0, "train": 0.0}
    masked = 0  # seeds whose dropout mask changes the loss
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        feats = rng.standard_normal((4, 4, 8))  # B=4 samples, V=4 views, d=8
        neural = rng.standard_normal((4, 8))
        c = dataclasses.replace(
            cfg, training=dataclasses.replace(cfg.training, seed=seed)
        )
        params = init_parameters(c, 8)

        losses = {}
        for mode in worst:
            def graph(p, _mode=mode):
                dropout_rng = np.random.default_rng(seed) if _mode == "train" else None
                return batch_gradients(p, feats, neural, cfg.fusion, dropout_rng)

            losses[mode], _, analytic = graph(params)
            for name in sorted(params):
                fd = central_difference(
                    lambda arr, _n=name: graph({**params, _n: arr})[0],
                    params[name], step=1e-5,
                )
                worst[mode] = max(worst[mode], relative_error(analytic[name], fd))
        masked += losses["train"] != losses["eval"]

    elapsed = time.perf_counter() - start
    ok = max(worst.values()) <= 1e-4 and masked == 10 and elapsed < 30.0
    _verdict(
        3, "gradient checks", ok,
        f"max rel err eval={worst['eval']:.2e} train={worst['train']:.2e} "
        f"over 10 seeds (B=4, V=4, d=8), dropout moved the loss in {masked}/10, "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_4_loss_properties():
    rng = np.random.default_rng(41)
    f_n = rng.standard_normal((8, 6))
    f_v = rng.standard_normal((8, 6))

    log_tau = math.log(0.2)
    loss_ab, z_ab = loss_and_gradients(f_n, f_v, log_tau)[:2]
    loss_ba, z_ba = loss_and_gradients(f_v, f_n, log_tau)[:2]
    swap_exact = loss_ab == loss_ba and np.array_equal(z_ab, z_ba.T)

    perm_dev = 0.0
    for _ in range(20):
        perm = rng.permutation(8)
        permuted = loss_and_gradients(f_n[perm], f_v[perm], log_tau)[0]
        perm_dev = max(perm_dev, abs(permuted - loss_ab))

    scale_n = rng.uniform(0.1, 10.0, size=(8, 1))
    scale_v = rng.uniform(0.1, 10.0, size=(8, 1))
    rescaled = loss_and_gradients(f_n * scale_n, f_v * scale_v, log_tau)[0]
    rescale_dev = abs(rescaled - loss_ab)

    eye = np.eye(2)
    closed = loss_and_gradients(eye, eye, 0.0)[0]
    closed_dev = abs(closed - math.log(1.0 + math.exp(-1.0)))

    ok = swap_exact and perm_dev <= 1e-9 and rescale_dev <= 1e-6 and closed_dev <= 1e-6
    _verdict(
        4, "loss properties", ok,
        f"swap_exact={swap_exact} perm_dev={perm_dev:.2e} "
        f"rescale_dev={rescale_dev:.2e} closed_form_dev={closed_dev:.2e}",
    )


def test_criterion_5_regulator_oracle():
    # closed loop: a stream that always reads confidently aligned walks
    # kernel 75 down to the floor in ceil((75 - 1) / 6) = 13 moves
    sched = BlurSchedule(
        sample_ids=[0], kernel_init=75, momentum=0.9, step=6, kernel_min=1, kernel_max=149
    )
    sched.update_smoothed([0], [1.0])
    path = [int(sched.update_kernels([0], (0.0, 0.5))[0]) for _ in range(13)]
    loop_ok = path[11] > 1 and path[12] == 1

    lower, upper = confidence_bounds(np.array([0.5, 0.6, 0.7]), z=1.96)
    bounds_ok = abs(lower - 0.4400) <= 1e-4 and abs(upper - 0.7600) <= 1e-4

    rng = np.random.default_rng(55)
    herd = BlurSchedule(
        sample_ids=range(1000), kernel_init=75, momentum=0.9, step=6, kernel_min=1, kernel_max=149
    )
    ids = np.arange(1000)
    updates = 0
    parity_ok = True
    for _ in range(100):  # 100 rounds x 1000 samples = 1e5 kernel updates
        herd.update_smoothed(ids, rng.uniform(-1, 1, size=1000))
        lo = rng.uniform(-1, 0)
        hi = rng.uniform(0, 1)
        kernels = herd.update_kernels(ids, (lo, hi))
        updates += kernels.size
        parity_ok = parity_ok and bool(np.all(kernels % 2 == 1))

    ok = loop_ok and bounds_ok and parity_ok and updates >= 100_000
    _verdict(
        5, "regulator oracle", ok,
        f"descent path tail={path[-3:]} bounds=({lower:.4f}, {upper:.4f}) "
        f"parity over {updates} updates={parity_ok}",
    )


def test_criterion_6_retrieval_metrics(tmp_path):
    # the production ranker, given every other gallery column in shuffled
    # order, against a stable descending sort
    rng = np.random.default_rng(66)
    shuffle = np.random.default_rng(67)
    exact = True
    for _ in range(500):
        sim = rng.standard_normal((10, 10))
        truth = rng.integers(0, 10, size=10)
        got = _ranks_among_draws(_beats(sim, truth), truth, every_other_column(shuffle, 10, 10))
        for q in range(10):
            order = sorted(range(10), key=lambda j: (-sim[q, j], j))
            exact = exact and got[q] == 1 + order.index(int(truth[q]))

    # untrained models on a 200-way gallery must sit at chance: pooled
    # top-1 over 50 independently initialized models (10^4 queries) inside
    # the 99% binomial interval around p = 1/200
    cfg = config_from_dict({
        "data": {"classes": 205, "test_classes": 200, "train_samples_per_class": 1,
                 "image_size": 32, "dim_neural": 16, "bank_levels": [75], "seed": 5},
        "provider": {"dim_feature": 16},
        "fusion": {"dim_latent": 16, "dim_hidden": 16, "dim_bottleneck": 8},
    })
    bank, images = generate_and_load(cfg, tmp_path)
    provider = SyntheticProvider(
        cfg.transforms, cfg.views, cfg.provider.dim_feature, cfg.provider.seed, images
    )
    ids = bank.indices("test")
    kernels = [cfg.transforms.kernel_size] * len(ids)
    feats = provider.features(ids, kernels, cfg.evaluation.seed, 0)
    neural = bank.neural[ids]
    truth = np.arange(len(ids))
    hits = 0
    trials = 50
    for model in range(trials):
        c = dataclasses.replace(
            cfg, training=dataclasses.replace(cfg.training, seed=1000 + model)
        )
        params = init_parameters(c, bank.dim_neural)
        latent, _ = fusion.fusion_forward(feats, params, c.fusion)
        f_n = nn.affine_forward(neural, params["enc_w"], params["enc_b"])
        sim = f_n @ latent.T  # ranks are scale-free; cosine would tie out the same
        draws = every_other_column(shuffle, len(ids), len(ids))
        ranks = _ranks_among_draws(_beats(sim, truth), truth, draws)
        hits += int((ranks == 1).sum())
    total = trials * len(ids)
    rate = hits / total
    p = 1.0 / 200.0
    half = 2.5758293035489004 * math.sqrt(p * (1.0 - p) / total)  # 99% two-sided
    chance_ok = p - half <= rate <= p + half

    ok = exact and chance_ok
    _verdict(
        6, "retrieval metrics", ok,
        f"oracle exact over 500 matrices={exact}; untrained top1={rate:.4f} "
        f"in ({p - half:.4f}, {p + half:.4f}) over {trials} trials={chance_ok}",
    )


def _smoke_config(root):
    return {
        "evaluation": {"gallery_sizes": [50], "trials": 20},
        "paths": {
            "dataset": str(root / "data"),
            "checkpoint": str(root / "run" / "checkpoint.bick"),
            "input_image": str(root / "in.ppm"),
            "runs": [str(root / "run")],
        },
    }


def test_criterion_7_end_to_end_smoke(tmp_path):
    # committed threshold 0.60: the calibration run of this exact recipe
    # (60 classes, 50 held out, d=64, seed 42, regulation on) measured
    # 50-way top-1 = 0.88, vs the 0.02 chance floor and the 0.20 gate
    start = time.perf_counter()
    cfg_path = tmp_path / "smoke.json"
    cfg_path.write_text(json.dumps(_smoke_config(tmp_path)))

    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--seed", "42"]) == 0
    assert main(["evaluate", "--config", str(cfg_path)]) == 0

    with open(tmp_path / "run" / "metrics.csv", newline="") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    first_five_descend = all(b < a for a, b in zip(losses[:5], losses[1:6]))

    with open(tmp_path / "run" / "eval.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    top1 = float(rows[0]["top1"])
    elapsed = time.perf_counter() - start

    ok = top1 >= 0.60 and first_five_descend and elapsed < 300.0
    _verdict(
        7, "end-to-end smoke", ok,
        f"50-way top1={top1:.4f} (threshold 0.60, chance 0.02), "
        f"first-5-epoch descent={first_five_descend}, elapsed={elapsed:.1f}s",
    )


def test_criterion_8_ablation_harness(tmp_path):
    base = tiny_config()
    base_raw = base.to_dict()
    base_raw["paths"] = {
        "dataset": str(tmp_path / "data"),
        "checkpoint": str(tmp_path / "run" / "checkpoint.bick"),
        "input_image": str(tmp_path / "in.ppm"),
        "runs": [str(tmp_path / "run")],
    }
    cfg_path = tmp_path / "base.json"
    cfg_path.write_text(json.dumps(base_raw))
    assert main(["generate", "--config", str(cfg_path)]) == 0

    manifests = []
    hashes = []
    for name, variant in ablation_ladder(config_from_dict(base_raw)):
        raw = variant.to_dict()
        raw["paths"]["checkpoint"] = str(tmp_path / name / "checkpoint.bick")
        vpath = tmp_path / f"{name}.json"
        vpath.write_text(json.dumps(raw))
        code = main(["train", "--config", str(vpath), "--out", str(tmp_path / name)])
        assert code == 0, f"ablation {name} failed"
        manifests.append((tmp_path / name / "manifest.json").read_text())
        hashes.append(config_hash(variant))

    distinct = len(set(manifests)) == 6 and len(set(hashes)) == 6
    _verdict(
        8, "ablation harness", distinct,
        f"6 configurations trained, {len(set(manifests))} distinct manifests, "
        f"{len(set(hashes))} distinct config hashes",
    )


def test_criterion_9_determinism(tmp_path, monkeypatch):
    # the same config (relative paths) in two fresh directories must leave
    # byte-identical artifacts, manifests included
    raw = tiny_config().to_dict()
    raw["paths"] = {"dataset": "data", "checkpoint": "run/checkpoint.bick",
                    "input_image": "in.ppm", "runs": ["run"]}
    for sub in ("a", "b"):
        root = tmp_path / sub
        root.mkdir()
        (root / "cfg.json").write_text(json.dumps(raw))
        monkeypatch.chdir(root)
        assert main(["generate", "--config", "cfg.json"]) == 0
        assert main(["train", "--config", "cfg.json"]) == 0
        assert main(["evaluate", "--config", "cfg.json"]) == 0

    files = sorted(
        p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()
    )
    mismatched = [
        str(rel) for rel in files
        if not filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False)
    ]
    ok = not mismatched and len(files) > 40  # images + bank + run artifacts
    _verdict(
        9, "determinism", ok,
        f"{len(files)} files compared byte-for-byte, mismatches={mismatched}",
    )
