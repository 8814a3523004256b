"""End-to-end command-line behaviour on a small workspace."""

import csv
import dataclasses
import filecmp
import gc
import json
import os
import shutil
import subprocess
import struct
import sys
import tracemalloc
import typing
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import rewrite_bank_header, tiny_config, write_checkpoint_manifest
import fovalign
import fovalign.alignment
import fovalign.cli
import fovalign.datagen
import fovalign.fusion
from fovalign.alignment import init_parameters
from fovalign.checkpoint import load_checkpoint, save_checkpoint
from fovalign.cli import main
from fovalign.config import FusionConfig, RunConfig, config_from_dict, config_hash, load_config
from fovalign.errors import NumericError
from fovalign.pixmap import read_pixmap, to_bytes_quantized, write_pixmap
from fovalign.transforms import add_noise, foveate, resample

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("generate", "transform", "train", "evaluate", "report")


def declared_console_script(name):
    """The ``module:attr`` target that pyproject.toml declares for script `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def assert_help_lists_commands(proc):
    assert proc.returncode == 0, proc.stderr
    for word in COMMANDS:
        assert word in proc.stdout


def write_config(path, **path_overrides):
    """Dump the tiny test config with absolute workspace paths."""
    raw = tiny_config().to_dict()
    raw["paths"] = {
        "dataset": path_overrides["dataset"],
        "checkpoint": path_overrides["checkpoint"],
        "input_image": path_overrides["input_image"],
        "runs": path_overrides.get("runs", [path_overrides["checkpoint"].rsplit("/", 1)[0]]),
    }
    path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    return raw


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + one trained run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    write_config(
        cfg_path,
        dataset=str(root / "data"),
        checkpoint=str(root / "run" / "checkpoint.bick"),
        input_image=str(root / "data" / "images" / "sample_00000.ppm"),
    )
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    return {"root": root, "config": cfg_path}


# configs for 64x64 images, run against the workspace's 32x32 pixmaps
IMAGE_MISFITS = {
    "center": ({"center": [40, 40]}, "transforms.center [40, 40] lies outside the 32x32 images"),
    "scale": (
        {"scale_mosaic": 1 / 64},
        "transforms.scale_mosaic 0.015625 collapses the 32x32 images",
    ),
}


def misfit_config(workspace, tmp_path, transforms):
    raw = json.loads(workspace["config"].read_text())
    raw["data"]["image_size"] = 64
    raw["transforms"].update(transforms)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return cfg


class TestGenerate:
    def test_artifacts_and_manifest(self, workspace):
        data = workspace["root"] / "data"
        assert (data / "bank.bicp").exists()
        images = sorted((data / "images").glob("sample_*.ppm"))
        assert len(images) == 44  # 4 train classes x 10 + 4 test classes x 1
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == manifest["config"]["data"]["seed"]

    def test_refuses_to_overwrite(self, workspace, capsys):
        assert main(["generate", "--config", str(workspace["config"])]) == 2
        assert "already exists (pass --force to overwrite)" in capsys.readouterr().err

    def test_force_overwrites_identically(self, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            dataset=str(tmp_path / "data"),
            checkpoint=str(tmp_path / "run" / "checkpoint.bick"),
            input_image=str(tmp_path / "in.ppm"),
        )
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["generate", "--config", str(cfg), "--force"]) == 0
        assert filecmp.cmp(
            tmp_path / "data" / "bank.bicp",
            workspace["root"] / "data" / "bank.bicp",
            shallow=False,
        )

    def test_seed_flag_changes_dataset(self, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            dataset=str(tmp_path / "data"),
            checkpoint=str(tmp_path / "run" / "checkpoint.bick"),
            input_image=str(tmp_path / "in.ppm"),
        )
        assert main(["generate", "--config", str(cfg), "--seed", "99"]) == 0
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config"]["data"]["seed"] == 99
        assert not filecmp.cmp(
            tmp_path / "data" / "bank.bicp",
            workspace["root"] / "data" / "bank.bicp",
            shallow=False,
        )


class TestTransform:
    def test_writes_four_views(self, workspace, tmp_path):
        out = tmp_path / "views"
        code = main([
            "transform", "--config", str(workspace["config"]), "--out", str(out)
        ])
        assert code == 0
        names = sorted(p.name for p in out.glob("*.ppm"))
        assert names == ["foveated.ppm", "lowres.ppm", "mosaic.ppm", "noise.ppm"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "transform"
        assert manifest["seed"] == 0  # default noise seed

    def test_noise_seed_reproducible(self, workspace, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
        for out, seed in zip(outs, ("3", "3", "4")):
            assert main([
                "transform", "--config", str(workspace["config"]),
                "--out", str(out), "--seed", seed,
            ]) == 0
        assert filecmp.cmp(outs[0] / "noise.ppm", outs[1] / "noise.ppm", shallow=False)
        assert not filecmp.cmp(outs[0] / "noise.ppm", outs[2] / "noise.ppm", shallow=False)
        # the deterministic views ignore the noise seed
        assert filecmp.cmp(outs[0] / "foveated.ppm", outs[2] / "foveated.ppm", shallow=False)

    def _config_for(self, tmp_path, image, **transforms):
        """A config whose input is `image`, a float image, quantized; and
        the input as `transform` reads it, widened to [0, 1]."""
        input_image = tmp_path / "in.ppm"
        write_pixmap(input_image, to_bytes_quantized(image))
        cfg = tmp_path / "cfg.json"
        raw = write_config(
            cfg,
            dataset=str(tmp_path / "data"),
            checkpoint=str(tmp_path / "run" / "checkpoint.bick"),
            input_image=str(input_image),
        )
        raw["transforms"].update(transforms)
        cfg.write_text(json.dumps(raw))
        return cfg, read_pixmap(input_image) / 255.0

    def test_views_equal_the_transforms_of_the_input(self, tmp_path):
        rng = np.random.default_rng(17)
        cfg, image = self._config_for(
            tmp_path, rng.random((3, 32, 32)),
            gamma=2.0, kernel_size=15, noise_sigma=10.0, scale_low=0.5, scale_mosaic=1 / 16,
        )
        out = tmp_path / "views"
        assert main(["transform", "--config", str(cfg), "--out", str(out), "--seed", "4"]) == 0
        want = {
            "foveated": foveate(image, 15, None, 2.0),
            "noise": add_noise(image, 10.0, 4),
            "lowres": resample(image, 0.5, "bilinear"),
            "mosaic": resample(image, 1 / 16, "nearest"),
        }
        for name, view in want.items():
            np.testing.assert_array_equal(read_pixmap(out / f"{name}.ppm"), to_bytes_quantized(view))

    def test_views_preserve_shape_and_range(self, tmp_path):
        rng = np.random.default_rng(18)
        cfg, image = self._config_for(tmp_path, rng.random((3, 32, 48)), kernel_size=9)
        out = tmp_path / "views"
        assert main(["transform", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("foveated", "noise", "lowres", "mosaic"):
            view = read_pixmap(out / f"{name}.ppm")
            assert view.shape == image.shape and view.dtype == np.uint8

    def test_scale_collapsing_the_input_image(self, tmp_path, capsys):
        # the config's 32x32 image_size admits 1/16; the 16x8 input does not
        cfg, _ = self._config_for(tmp_path, np.zeros((3, 16, 8)))
        assert main(["transform", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert "transforms.scale_mosaic 0.0625 collapses the 16x8 input image" in err
        assert not (tmp_path / "v").exists()

    def test_missing_input_image(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            dataset=str(tmp_path / "data"),
            checkpoint=str(tmp_path / "run" / "checkpoint.bick"),
            input_image=str(tmp_path / "missing.ppm"),
        )
        assert main(["transform", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_center_outside_the_input_image(self, tmp_path, capsys):
        # the config's 32x32 image_size admits the center; the 8x8 input does not
        image = tmp_path / "small.ppm"
        write_pixmap(image, np.zeros((3, 8, 8), dtype=np.uint8))
        cfg = tmp_path / "cfg.json"
        raw = write_config(
            cfg,
            dataset=str(tmp_path / "data"),
            checkpoint=str(tmp_path / "run" / "checkpoint.bick"),
            input_image=str(image),
        )
        raw["transforms"]["center"] = [20, 3]
        cfg.write_text(json.dumps(raw))
        assert main(["transform", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
        assert "transforms.center [20, 3] lies outside the 8x8 input image" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()


class TestTrain:
    def test_artifacts(self, workspace):
        run = workspace["root"] / "run"
        assert (run / "checkpoint.bick").exists()
        with open(run / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "epoch", "loss", "mean_smoothed_sim",
            "kernel_min", "kernel_mean", "kernel_max", "t_lower", "t_upper",
        ]
        assert len(rows) == 1 + 2  # header + one line per epoch
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == manifest["config"]["training"]["seed"]

    def test_checkpoint_metadata(self, workspace):
        arrays, meta = load_checkpoint(workspace["root"] / "run" / "checkpoint.bick")
        cfg = config_from_dict(json.loads(workspace["config"].read_text()))
        # the array table, the model and the manifest beside the checkpoint
        # hold the rest: views, dimensions, tag, seed and epochs
        assert set(meta) == {"arrays", "config_hash", "model", "kernel_hist", "final_loss"}
        assert meta["config_hash"] == config_hash(cfg)
        assert meta["model"] == {
            "views": ["foveated", "noise", "lowres", "mosaic"],
            "provider": {"dim_feature": 16, "seed": cfg.provider.seed},
            "fusion": dataclasses.asdict(cfg.fusion),
            "dataset_tag": "synthetic",
        }
        assert set(arrays) == set(init_parameters(cfg, cfg.data.dim_neural))
        assert sum(meta["kernel_hist"].values()) == 40

    def test_manifest_reproduces_run_bit_for_bit(self, workspace, tmp_path):
        run = workspace["root"] / "run"
        out = tmp_path / "replay"
        assert main([
            "train", "--config", str(run / "manifest.json"), "--out", str(out)
        ]) == 0
        assert filecmp.cmp(run / "checkpoint.bick", out / "checkpoint.bick", shallow=False)
        assert filecmp.cmp(run / "metrics.csv", out / "metrics.csv", shallow=False)

    def test_seed_flag_changes_training(self, workspace, tmp_path):
        out = tmp_path / "other-seed"
        assert main([
            "train", "--config", str(workspace["config"]),
            "--out", str(out), "--seed", "1234",
        ]) == 0
        assert not filecmp.cmp(
            workspace["root"] / "run" / "checkpoint.bick",
            out / "checkpoint.bick", shallow=False,
        )

    def test_zero_epochs_checkpoint_is_initialization(self, workspace, tmp_path):
        raw = json.loads(workspace["config"].read_text())
        raw["training"]["epochs"] = 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "run0"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        arrays, meta = load_checkpoint(out / "checkpoint.bick")
        fresh = init_parameters(config_from_dict(raw), raw["data"]["dim_neural"])
        for name, ref in fresh.items():
            np.testing.assert_array_equal(arrays[name], ref.astype(np.float32))
        assert meta["final_loss"] is None

    def test_missing_dataset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            dataset=str(tmp_path / "nowhere"),
            checkpoint=str(tmp_path / "run" / "checkpoint.bick"),
            input_image=str(tmp_path / "in.ppm"),
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_truncated_pixmap_exits_2_naming_the_file(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["root"] / "data", data)
        image = data / "images" / "sample_00003.ppm"
        image.write_bytes(b"P6\n32 32")
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["dataset"] = str(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"{image}: not a binary P6 pixmap" in capsys.readouterr().err

    def test_mixed_size_pixmaps_exit_2_naming_the_file(self, workspace, tmp_path, capsys):
        # one train and one test pixmap at 40x40 among the dataset's 32x32
        data = tmp_path / "data"
        shutil.copytree(workspace["root"] / "data", data)
        rng = np.random.default_rng(4)
        for i in (3, 42):
            write_pixmap(data / "images" / f"sample_{i:05d}.ppm",
                         rng.integers(0, 256, (3, 40, 40), dtype=np.uint8))
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["dataset"] = str(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        for command, i in (("train", 3), ("evaluate", 42)):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"images/sample_{i:05d}.ppm: pixmap is 40x40, sample_" in err
            assert "is 32x32" in err
            assert not out.exists()

    @pytest.mark.parametrize("misfit", IMAGE_MISFITS.values(), ids=IMAGE_MISFITS.keys())
    def test_dataset_images_must_fit_the_config(self, workspace, tmp_path, capsys, misfit):
        cfg = misfit_config(workspace, tmp_path, misfit[0])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert misfit[1] in capsys.readouterr().err
        assert not out.exists()

    def test_disabled_view_scale_not_checked(self, workspace, tmp_path):
        cfg = misfit_config(workspace, tmp_path, {"scale_mosaic": 1 / 64})
        raw = json.loads(cfg.read_text())
        raw["views"]["mosaic"] = False
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0

    def test_numeric_failure_dumps_state(self, workspace, tmp_path, monkeypatch, capsys):
        class ExplodingTrainer:
            def __init__(self, *args):
                pass

            def train(self):
                raise NumericError("non-finite loss at epoch 0, batch 1",
                                   state={"epoch": 0, "batch": 1})

        monkeypatch.setattr("fovalign.cli.Trainer", ExplodingTrainer)
        out = tmp_path / "boom"
        code = main([
            "train", "--config", str(workspace["config"]), "--out", str(out)
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure: non-finite loss" in err
        assert '"batch": 1' in err  # diagnostic state serialized to stderr

    def test_nan_gradient_exits_3_naming_the_group(self, workspace, tmp_path, monkeypatch, capsys):
        backward = fovalign.fusion.fusion_backward
        calls = []

        def poisoned(*args, **kwargs):
            grads = backward(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:  # epoch 0, batch 1
                # att_w sorts first; backward emits pur_w2 first and ev_b1 last
                for name in ("pur_w2", "att_w", "ev_b1"):
                    grads[name] = grads[name].copy()
                    grads[name].flat[0] = np.nan
            return grads

        monkeypatch.setattr(fovalign.fusion, "fusion_backward", poisoned)
        out = tmp_path / "nan"
        code = main(["train", "--config", str(workspace["config"]), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure: non-finite gradient of att_w at epoch 0, batch 1" in err
        dump = json.loads(err.split("\n", 1)[1])
        assert dump["non_finite"] == {"kind": "gradient", "group": "att_w"}

        def reject(token):
            raise ValueError(f"bare {token} token in the dump")

        # strict JSON: non-finite numbers are written as their repr strings
        strict = json.loads(err.split("\n", 1)[1], parse_constant=reject)
        assert strict["param_norms"]["att_w"] == "nan"
        assert isinstance(strict["temperature"], float)
        assert (dump["epoch"], dump["batch"]) == (0, 1)
        assert not (out / "checkpoint.bick").exists()


class TestEvaluate:
    def test_artifacts_and_manifest_isolation(self, workspace):
        run = workspace["root"] / "run"
        assert main(["evaluate", "--config", str(workspace["config"])]) == 0
        with open(run / "eval.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [4, 2]
        for r in rows:
            assert 0.0 <= float(r["top1"]) <= float(r["top5"]) <= 1.0
            assert r["subject"] == "synthetic"
        summary = (run / "summary.txt").read_text()
        assert "4 zero-shot test queries" in summary
        assert "n=4:" in summary and "n=2:" in summary
        # evaluate keeps its manifest apart from the training manifest
        eval_manifest = json.loads((run / "eval_manifest.json").read_text())
        assert eval_manifest["command"] == "evaluate"
        train_manifest = json.loads((run / "manifest.json").read_text())
        assert train_manifest["command"] == "train"

    def test_eval_manifest_seed_not_adopted_by_train(self, workspace, tmp_path):
        # replaying a training run from the evaluation manifest must reuse
        # the config's training seed, not the evaluation seed
        run = workspace["root"] / "run"
        evaluated = tmp_path / "evaluated"
        assert main([
            "evaluate", "--config", str(workspace["config"]), "--out", str(evaluated)
        ]) == 0
        out = tmp_path / "from-eval-manifest"
        assert main([
            "train", "--config", str(evaluated / "eval_manifest.json"), "--out", str(out)
        ]) == 0
        assert filecmp.cmp(run / "checkpoint.bick", out / "checkpoint.bick", shallow=False)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["training"]["seed"]

    def test_reproducible(self, workspace, tmp_path):
        outs = [tmp_path / "e1", tmp_path / "e2"]
        for out in outs:
            assert main([
                "evaluate", "--config", str(workspace["config"]), "--out", str(out)
            ]) == 0
        assert filecmp.cmp(outs[0] / "eval.csv", outs[1] / "eval.csv", shallow=False)

    def test_feature_width_mismatch_names_both_sides(self, workspace, tmp_path, capsys):
        raw = json.loads(workspace["config"].read_text())
        raw["provider"]["dim_feature"] = 24
        raw["fusion"]["dim_latent"] = 24  # keep the model self-consistent
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert "16" in err and "24" in err

    def test_oversized_gallery_fails_before_encoding(self, workspace, tmp_path,
                                                     monkeypatch, capsys):
        # the config's own rule: a gallery larger than data.test_classes
        def unreachable(*args, **kwargs):
            raise AssertionError("encode_pairs ran before the gallery check")

        monkeypatch.setattr(fovalign.cli, "encode_pairs", unreachable)
        raw = json.loads(workspace["config"].read_text())
        raw["evaluation"]["gallery_sizes"] = [2, 5]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: evaluation.gallery_sizes: gallery size n=5 exceeds "
            "the test set size 4 (data.test_classes)"
        ]

    def test_gallery_larger_than_the_dataset_fails_before_encoding(self, workspace, tmp_path,
                                                                   monkeypatch, capsys):
        # the config claims 2 more test classes than the dataset holds, so
        # only evaluate's own check against the loaded test set can refuse it
        def unreachable(*args, **kwargs):
            raise AssertionError("encode_pairs ran before the gallery check")

        monkeypatch.setattr(fovalign.cli, "encode_pairs", unreachable)
        raw = json.loads(workspace["config"].read_text())
        raw["data"]["classes"] += 2
        raw["data"]["test_classes"] += 2
        raw["evaluation"]["gallery_sizes"] = [5]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: gallery size n=5 exceeds the test set size 4"
        ]

    @pytest.mark.parametrize(
        "broken, message",
        [("checkpoint", "checkpoint array table"), ("bank", "bank header")],
    )
    def test_malformed_file_exits_2(self, workspace, tmp_path, capsys, broken, message):
        raw = json.loads(workspace["config"].read_text())
        if broken == "checkpoint":
            raw["paths"]["checkpoint"] = str(tmp_path / "bad.bick")
            write_checkpoint_manifest(tmp_path / "bad.bick", {"arrays": [{"shape": [1]}]})
        else:
            data = tmp_path / "data"
            shutil.copytree(workspace["root"] / "data", data)
            rewrite_bank_header(data / "bank.bicp", kernel_levels=None)
            raw["paths"]["dataset"] = str(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["enc_w", "proj_w"])
    def test_checkpoint_of_the_wrong_shape_exits_2(self, workspace, tmp_path, capsys, name):
        arrays, meta = load_checkpoint(workspace["root"] / "run" / "checkpoint.bick")
        want = arrays[name].shape
        # a 0-d encoder weight, or a projection one feature short
        arrays[name] = np.array(0.5) if name == "enc_w" else arrays[name][:-1]
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["checkpoint"] = str(tmp_path / "bad.bick")
        save_checkpoint(tmp_path / "bad.bick", arrays, {k: v for k, v in meta.items() if k != "arrays"})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
        assert (
            f"checkpoint {tmp_path / 'bad.bick'} gives arrays.{name} = "
            f"{list(arrays[name].shape)}, the config {list(want)}"
        ) in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        # NaN parameters would otherwise evaluate as perfect retrieval
        arrays, meta = load_checkpoint(workspace["root"] / "run" / "checkpoint.bick")
        arrays["proj_w"] = np.full_like(arrays["proj_w"], np.nan)
        save_checkpoint(tmp_path / "nan.bick", arrays, {k: v for k, v in meta.items() if k != "arrays"})
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["checkpoint"] = str(tmp_path / "nan.bick")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "e"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "array 'proj_w' contains non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_evidence_evaluates_without_a_warning(self, workspace, tmp_path, capsys):
        # exp(softplus) overflows to infinite evidence, which is belief 1 by
        # design; a finite checkpoint evaluates with nothing on stderr
        arrays, meta = load_checkpoint(workspace["root"] / "run" / "checkpoint.bick")
        arrays["ev_b1"][:] = 1e3
        arrays["ev_w2"][:] = 1e3
        save_checkpoint(tmp_path / "big.bick", arrays, {k: v for k, v in meta.items() if k != "arrays"})
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["checkpoint"] = str(tmp_path / "big.bick")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_checkpoint(self, workspace, tmp_path, capsys):
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["checkpoint"] = str(tmp_path / "none.bick")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2

    @pytest.mark.parametrize("misfit", IMAGE_MISFITS.values(), ids=IMAGE_MISFITS.keys())
    def test_dataset_images_must_fit_the_config(self, workspace, tmp_path, capsys, misfit):
        cfg = misfit_config(workspace, tmp_path, misfit[0])
        out = tmp_path / "e"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
        assert misfit[1] in capsys.readouterr().err
        assert not out.exists()


# the workspace holds 40 training samples (0-39) and 4 test samples (40-43)
SPLIT_READS = {
    "synthetic": {"train": range(40), "evaluate": range(40, 44)},
    "bank": {"train": range(0), "evaluate": range(0)},
}


@pytest.mark.parametrize("kind", SPLIT_READS)
def test_each_command_reads_only_the_pixmaps_of_its_split(
    workspace, tmp_path, monkeypatch, kind
):
    raw = json.loads(workspace["config"].read_text())
    raw["provider"]["kind"] = kind
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    real, read = fovalign.datagen.read_pixmap, []
    monkeypatch.setattr(fovalign.datagen, "read_pixmap", lambda path: read.append(path) or real(path))
    for command, ids in SPLIT_READS[kind].items():
        read.clear()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert sorted(Path(path).name for path in read) == [f"sample_{i:05d}.ppm" for i in ids]


def test_loaded_split_holds_one_byte_per_channel_and_pixel(workspace):
    # train's images are the 40 train pixmaps' uint8 levels, 3x32x32 bytes
    # each: a float64 copy of them would hold 8 times as many bytes
    config, _ = load_config(str(workspace["config"]))
    bank, provider = fovalign.cli._load_data(config, ("train",))
    assert isinstance(provider.images, list)
    held = [image for image in provider.images if image is not None]
    assert len(held) == len(bank.indices("train")) == 40
    assert sum(image.nbytes for image in held) == 40 * 3 * 32 * 32
    # evaluate's are read on access, each the same 3x32x32 levels
    bank, provider = fovalign.cli._load_data(config, ("test",), lazy=True)
    assert not isinstance(provider.images, list)
    read = [image for image in provider.images if image is not None]
    assert len(read) == len(bank.indices("test")) == 4
    assert {(str(image.dtype), image.nbytes) for image in read} == {("uint8", 3 * 32 * 32)}


@pytest.fixture
def wide_bank_workspace(workspace, tmp_path):
    """(config, bank): the workspace's pixmaps beside a bank of the same
    samples whose feature block, at 2,048 dimensions, is 5.4 MB, several
    times the bank reader's chunk budget."""
    small = fovalign.load_embedding_bank(workspace["root"] / "data" / "bank.bicp")
    rng = np.random.default_rng(3)
    shape = (small.sample_count, len(small.kernel_levels), small.views, 2048)
    bank = dataclasses.replace(small, dim_feature=2048,
                               features=rng.standard_normal(shape).astype(np.float32))
    shutil.copytree(workspace["root"] / "data" / "images", tmp_path / "data" / "images")
    fovalign.save_embedding_bank(tmp_path / "data" / "bank.bicp", bank)
    raw = json.loads(workspace["config"].read_text())
    raw["paths"]["dataset"] = str(tmp_path / "data")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return cfg, bank


def test_synthetic_provider_holds_no_feature_block(wide_bank_workspace):
    # the synthetic provider encodes pixmaps, so its load checks the
    # bank's features chunk by chunk but keeps none of them
    cfg, bank = wide_bank_workspace
    config, _ = load_config(str(cfg))
    tracemalloc.start()
    try:
        loaded, provider = fovalign.cli._load_data(config, ("test",), lazy=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bank.features.nbytes, f"{peak} traced bytes"
    assert loaded.features is None and isinstance(provider, fovalign.SyntheticProvider)
    np.testing.assert_array_equal(loaded.neural, bank.neural)


@pytest.mark.parametrize("fault", ["header-length", "sample-count"])
def test_an_impossible_bank_size_exits_2_before_it_is_read(
    wide_bank_workspace, tmp_path, capsys, fault
):
    # each size the header states is compared with the file's before a
    # byte of that size is allocated or read
    cfg, bank = wide_bank_workspace
    path = tmp_path / "data" / "bank.bicp"
    data = bytearray(path.read_bytes())
    if fault == "header-length":
        data[8:12] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        message = f"error: {path}: bank header runs past the end of the file"
    else:
        (length,) = struct.unpack("<I", data[8:12])
        payload = len(data) - 12 - length
        rewrite_bank_header(path, sample_count=2**40)
        row = len(bank.kernel_levels) * bank.views * bank.dim_feature + bank.dim_neural
        message = (f"error: {path}: payload has {payload} bytes, "
                   f"the bank header describes {2**40 * row * 4}")
    tracemalloc.start()
    try:
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert peak < 1 << 20, f"{peak} traced bytes"


_SCIPY_PROBE = """
import json, sys
from fovalign.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"fovalign {' '.join(argv)} failed")
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_generate_transform_and_report_never_import_scipy(workspace, tmp_path):
    # SciPy's special functions are imported on their first use, by the
    # fusion stage of train and evaluate
    run = tmp_path / "run"
    assert main(["evaluate", "--config", str(workspace["config"]), "--out", str(run)]) == 0
    raw = json.loads(workspace["config"].read_text())
    raw["paths"]["runs"] = [str(run)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    src_dir = str(Path(fovalign.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, inherited])))

    def imported(*commands):
        steps = [[command, "--config", str(cfg), "--out", str(tmp_path / command)]
                 for command in commands]
        proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(steps)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    assert imported("generate", "transform", "report") == []
    assert "scipy.special" in imported("evaluate")  # the probe sees a first use


def gallery_workspace(root, test_classes, **sections):
    """The config of a dataset with `test_classes` one-image test classes
    beside 4 training classes of 4 samples (ids 0-15), generated, and of a
    checkpoint trained on it for one epoch. `sections` update the tiny
    config's sections."""
    raw = tiny_config().to_dict()
    raw["data"].update(classes=4 + test_classes, test_classes=test_classes,
                       train_samples_per_class=4)
    raw["training"]["epochs"] = 1
    raw["evaluation"]["gallery_sizes"] = [test_classes, 50]
    for section, edits in sections.items():
        raw[section].update(edits)
    raw["paths"] = {"dataset": str(root / "data"), "checkpoint": str(root / "run" / "checkpoint.bick"),
                    "input_image": str(root / "data" / "images" / "sample_00000.ppm"),
                    "runs": [str(root / "run")]}
    root.mkdir(parents=True, exist_ok=True)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["generate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    return cfg


@pytest.fixture(scope="module")
def gallery(tmp_path_factory):
    """130 test queries (ids 16-145): three query blocks of 64, 64 and 2."""
    return gallery_workspace(tmp_path_factory.mktemp("gallery"), 130)


def test_evaluate_in_query_blocks_writes_the_eager_eval_csv(gallery, tmp_path, monkeypatch):
    real_read, read = fovalign.datagen.read_pixmap, []
    monkeypatch.setattr(fovalign.datagen, "read_pixmap",
                        lambda path: read.append(Path(path).name) or real_read(path))
    assert main(["evaluate", "--config", str(gallery), "--out", str(tmp_path / "blocks")]) == 0
    # each test pixmap is read once, in query order, as its block is encoded
    assert read == [f"sample_{i:05d}.ppm" for i in range(16, 146)]
    # one eager pass: every test pixmap read up front, one features call
    real_load = fovalign.cli.load_dataset
    monkeypatch.setattr(fovalign.cli, "load_dataset",
                        lambda directory, splits, lazy, **kwargs: real_load(directory, splits, **kwargs))
    monkeypatch.setattr(fovalign.alignment, "_QUERY_BLOCK", 10**6)
    assert main(["evaluate", "--config", str(gallery), "--out", str(tmp_path / "eager")]) == 0
    eager = (tmp_path / "eager" / "eval.csv").read_bytes()
    assert (tmp_path / "blocks" / "eval.csv").read_bytes() == eager


@pytest.mark.parametrize("fault", ["missing", "40x40", "truncated"])
def test_a_bad_test_pixmap_in_a_later_block_exits_2_naming_it(gallery, tmp_path, capsys, fault):
    data = tmp_path / "data"
    shutil.copytree(gallery.parent / "data", data)
    image = data / "images" / "sample_00145.ppm"  # the last query, in the third block
    if fault == "missing":
        image.unlink()
        message = f"No such file or directory: '{image}'"
    elif fault == "40x40":
        write_pixmap(image, np.zeros((3, 40, 40), dtype=np.uint8))
        message = f"{image}: pixmap is 40x40, sample_00016.ppm is 32x32"
    else:
        image.write_bytes(image.read_bytes()[:-1])
        message = f"{image}: raster has 3071 bytes, expected 3072"
    raw = json.loads(gallery.read_text())
    raw["paths"]["dataset"] = str(data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "e"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # no eval.csv


def test_evaluate_holds_at_most_one_block_of_images(tmp_path, monkeypatch):
    # the traced peak up to the end of the encoding, on 130 and on 260
    # queries of 64x64 images: held pixmaps would add 12 KiB per query
    image_bytes = 3 * 64 * 64
    sections = {"views": {"identity": True, "foveated": False, "noise": False, "lowres": False,
                          "mosaic": False},
                "data": {"image_size": 64, "bank_levels": [1]}, "regulator": {"enabled": False}}
    real_encode, peaks = fovalign.cli.encode_pairs, []

    def traced_encode(*args):
        encoded = real_encode(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return encoded

    monkeypatch.setattr(fovalign.cli, "encode_pairs", traced_encode)
    for queries in (130, 260):
        cfg = gallery_workspace(tmp_path / str(queries), queries, **sections)
        tracemalloc.start()
        try:
            assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / f"e{queries}")]) == 0
        finally:
            tracemalloc.stop()
    growth = (peaks[1] - peaks[0]) / 130
    assert growth < image_bytes / 2, f"{growth:.0f} bytes per query"


def test_evaluate_holds_no_provider_while_it_ranks(gallery, tmp_path, monkeypatch):
    # the synthetic provider caches every query's rows, which no later step reads
    real_load, real_cosine, providers, alive = (
        fovalign.cli._load_data, fovalign.cli.cosine_similarity_matrix, [], [])

    def load(*args, **kwargs):
        bank, provider = real_load(*args, **kwargs)
        providers.append(weakref.ref(provider))
        return bank, provider

    def cosine(queries, gallery):
        gc.collect()
        alive.append((len(queries), sum(ref() is not None for ref in providers)))
        return real_cosine(queries, gallery)

    monkeypatch.setattr(fovalign.cli, "_load_data", load)
    monkeypatch.setattr(fovalign.cli, "cosine_similarity_matrix", cosine)
    assert main(["evaluate", "--config", str(gallery), "--out", str(tmp_path / "e")]) == 0
    # one cosine call per block of query rows, and no provider alive at any
    assert len(providers) == 1 and alive == [(64, 0), (64, 0), (2, 0)]


def test_evaluate_ranks_without_a_queries_by_gallery_matrix(gallery, tmp_path, monkeypatch):
    # 1024 queries of random latents: the whole cosine matrix would be 8 MiB
    queries = 1024
    raw = json.loads(gallery.read_text(encoding="utf-8"))
    raw["data"].update(classes=4 + queries, test_classes=queries)  # the config's own check
    raw["evaluation"].update(gallery_sizes=[queries, 50, 2], trials=10)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    real_write, peaks = fovalign.cli._write_csv, []

    def encode(config, bank, provider, params, ids):
        rng = np.random.default_rng(0)
        encoded = tuple(rng.standard_normal((len(ids), config.fusion.dim_latent)) for _ in "ab")
        tracemalloc.start()  # traces the cosine and the ranking, up to eval.csv
        return encoded

    def write_csv(path, header, rows):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        real_write(path, header, rows)

    monkeypatch.setattr(fovalign.EmbeddingBank, "indices", lambda self, split: np.arange(queries))
    monkeypatch.setattr(fovalign.cli, "encode_pairs", encode)
    monkeypatch.setattr(fovalign.cli, "_write_csv", write_csv)
    try:
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
    finally:
        tracemalloc.stop()
    assert f"{queries} zero-shot test queries" in (tmp_path / "e" / "summary.txt").read_text()
    assert peaks[0] < queries * queries * 8 / 4, f"{peaks[0] / 2**20:.2f} MiB"


def _changed(value):
    """Another valid value of a fusion setting."""
    if isinstance(value, bool):
        return not value
    return value + 1 if isinstance(value, int) else value * 2


TINY_VIEWS = ["foveated", "noise", "lowres", "mosaic"]
# one setting the model depends on, as (config edits, the differing entry,
# the checkpoint's value, the config's value)
MODEL_CHANGES = {
    "views": ({"views": {"identity": True, "foveated": False}}, "model.views",
              TINY_VIEWS, ["identity"] + TINY_VIEWS[1:]),
    "provider.dim_feature": ({"provider": {"dim_feature": 24}},
                             "model.provider.dim_feature", 16, 24),
    "provider.seed": ({"provider": {"seed": 99}}, "model.provider.seed", 7, 99),
    **{
        f"fusion.{f.name}": (
            {"fusion": {f.name: _changed(f.default)}}, f"model.fusion.{f.name}",
            getattr(tiny_config().fusion, f.name), _changed(f.default),
        )
        for f in dataclasses.fields(FusionConfig)
    },
}
# sections that may differ between training and evaluation
FREE_CHANGES = {
    "transforms": {"transforms": {"gamma": 2.0, "kernel_size": 9}},
    "evaluation": {"evaluation": {"trials": 3, "seed": 1}},
    "training": {"training": {"epochs": 7, "learning_rate": 0.5, "seed": 3}},
    "regulator": {"regulator": {"enabled": False, "alpha": 0.1}},
    "provider.kind": {"provider": {"kind": "bank"}},
}


class TestModelMatch:
    """`evaluate` refuses a checkpoint whose model or arrays differ from
    its config's, naming the first differing entry and both values."""

    def _evaluate(self, workspace, tmp_path, edits=(), **paths):
        raw = json.loads(workspace["config"].read_text())
        for section, values in dict(edits).items():
            raw[section].update(values)
        raw["paths"].update(paths)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        return main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")])

    def _rewrite(self, workspace, tmp_path, arrays=None, **meta_changes):
        """A copy of the workspace checkpoint with other arrays or header entries
        (None drops one); returns its path."""
        saved, meta = load_checkpoint(workspace["root"] / "run" / "checkpoint.bick")
        meta = {k: v for k, v in {**meta, **meta_changes}.items() if v is not None}
        path = tmp_path / "edited.bick"
        save_checkpoint(path, saved if arrays is None else arrays(saved),
                        {k: v for k, v in meta.items() if k != "arrays"})
        return path

    @pytest.mark.parametrize("change", MODEL_CHANGES.values(), ids=MODEL_CHANGES.keys())
    def test_another_model_exits_2(self, workspace, tmp_path, capsys, change):
        edits, entry, trained, configured = change
        assert self._evaluate(workspace, tmp_path, edits) == 2
        checkpoint = workspace["root"] / "run" / "checkpoint.bick"
        assert capsys.readouterr().err == (
            f"error: checkpoint {checkpoint} gives {entry} = {trained!r}, "
            f"the config {configured!r}\n"
        )
        assert not (tmp_path / "e").exists()

    def test_another_dataset_tag_exits_2(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["root"] / "data", data)
        rewrite_bank_header(data / "bank.bicp", tag="other")
        assert self._evaluate(workspace, tmp_path, dataset=str(data)) == 2
        assert "gives model.dataset_tag = 'synthetic', the config 'other'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda a: {k: v for k, v in a.items() if k != "enc_b"},
         "gives arrays.enc_b = (absent), the config [16]"),
        (lambda a: {**a, "extra": np.zeros(2)}, "gives arrays.extra = [2], the config (absent)"),
    ], ids=["missing", "extra"])
    def test_a_missing_or_extra_array_exits_2(self, workspace, tmp_path, capsys, edit, message):
        path = self._rewrite(workspace, tmp_path, arrays=edit)
        assert self._evaluate(workspace, tmp_path, checkpoint=str(path)) == 2
        assert message in capsys.readouterr().err

    def test_evaluate_draws_no_parameters(self, workspace, tmp_path, monkeypatch):
        # the arrays are checked against the declared shapes; every binding
        # of init_parameters in the package raises, and evaluate gives the
        # same eval.csv
        assert self._evaluate(workspace, tmp_path) == 0
        expected = (tmp_path / "e" / "eval.csv").read_bytes()
        shutil.rmtree(tmp_path / "e")

        def refuse(*args):
            raise AssertionError("evaluate drew a parameter set")

        for name, module in list(sys.modules.items()):
            if name.startswith("fovalign") and getattr(module, "init_parameters", None) is init_parameters:
                monkeypatch.setattr(module, "init_parameters", refuse)
        assert self._evaluate(workspace, tmp_path) == 0
        assert (tmp_path / "e" / "eval.csv").read_bytes() == expected

    @pytest.mark.parametrize("model, shown", [(None, "(absent)"), ([1, 2], "[1, 2]")],
                             ids=["absent", "not-an-object"])
    def test_a_checkpoint_without_a_model_object_exits_2(
        self, workspace, tmp_path, capsys, model, shown
    ):
        # a checkpoint written before the model was recorded lacks the entry
        path = self._rewrite(workspace, tmp_path, model=model, views=4, dim_feature=16)
        assert self._evaluate(workspace, tmp_path, checkpoint=str(path)) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {path} gives model = {shown}, the config {{'views': " in err

    @pytest.mark.parametrize("edits", FREE_CHANGES.values(), ids=FREE_CHANGES.keys())
    def test_settings_outside_the_model_may_differ(self, workspace, tmp_path, edits):
        assert self._evaluate(workspace, tmp_path, edits) == 0
        assert (tmp_path / "e" / "eval.csv").exists()


@pytest.mark.parametrize("edits, message", [
    ({"views": {"mosaic": False}}, "gives views = 4, the config 3"),
    ({"provider": {"dim_feature": 24}, "fusion": {"dim_latent": 24}},
     "gives dim_feature = 16, the config 24"),
], ids=["views", "dim_feature"])
def test_bank_of_other_dimensions_exits_2(workspace, tmp_path, capsys, edits, message):
    raw = json.loads(workspace["config"].read_text())
    raw["provider"]["kind"] = "bank"
    for section, values in edits.items():
        raw[section].update(values)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    bank = workspace["root"] / "data" / "bank.bicp"
    assert f"error: embedding bank {bank} {message}" in capsys.readouterr().err


class TestReport:
    def test_aggregates_runs(self, workspace, tmp_path):
        run = workspace["root"] / "run"
        if not (run / "eval.csv").exists():
            assert main(["evaluate", "--config", str(workspace["config"])]) == 0
        second = tmp_path / "other-run"
        second.mkdir()
        shutil.copy(run / "eval.csv", second / "eval.csv")

        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["runs"] = [str(run), str(second)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "report"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # two runs x two gallery sizes
        assert {r["run"] for r in rows} == {str(run), str(second)}

    def test_missing_eval_rejected(self, workspace, tmp_path, capsys):
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["runs"] = [str(tmp_path / "empty-run")]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "run `evaluate`" in capsys.readouterr().err

    def test_evaluate_out_directory_must_be_listed(self, workspace, tmp_path, capsys):
        elsewhere = tmp_path / "elsewhere"
        assert main([
            "evaluate", "--config", str(workspace["config"]), "--out", str(elsewhere)
        ]) == 0
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["runs"] = [str(tmp_path / "run")]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert f"searched {tmp_path / 'run'} for eval.csv" in err
        assert "list an `evaluate --out` directory in paths.runs" in err

        raw["paths"]["runs"] = [str(elsewhere)]
        cfg.write_text(json.dumps(raw))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        with open(tmp_path / "r" / "report.csv", newline="") as fh:
            assert {r["run"] for r in csv.DictReader(fh)} == {str(elsewhere)}

    def test_mangled_eval_columns_rejected(self, workspace, tmp_path, capsys):
        bad_run = tmp_path / "bad-run"
        bad_run.mkdir()
        (bad_run / "eval.csv").write_text("a,b\n1,2\n")
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["runs"] = [str(bad_run)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "unexpected columns" in capsys.readouterr().err

    def _report(self, workspace, tmp_path, content: bytes) -> int:
        run = tmp_path / "bad-run"
        run.mkdir()
        (run / "eval.csv").write_bytes(content)
        raw = json.loads(workspace["config"].read_text())
        raw["paths"]["runs"] = [str(run)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        return main(["report", "--config", str(cfg), "--out", str(tmp_path / "r")])

    def test_eval_csv_that_is_not_utf8(self, workspace, tmp_path, capsys):
        header = ",".join(fovalign.cli._EVAL_COLUMNS).encode()
        assert self._report(workspace, tmp_path, header + b"\n\xff\xfe,4\n") == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'bad-run' / 'eval.csv'} is not UTF-8 CSV text" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_row_of_another_length(self, workspace, tmp_path, capsys):
        header = ",".join(fovalign.cli._EVAL_COLUMNS)
        row = "S,4,7,5,0.5,1.0,0.6,0.1"
        content = f"{header}\n{row}\nS,50\n".encode()
        assert self._report(workspace, tmp_path, content) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'bad-run' / 'eval.csv'}: row 2 has 2 cells, the header 8\n"
        )
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("row, message", [
        ("S,0,7,5,0.5,1.0,0.6,0.1", "n must be >= 1, got 0"),
        ("S,4,-3,5,0.5,1.0,0.6,0.1", "seed: expected int, got '-3'"),
        ("S,4,7,2.5,0.5,1.0,0.6,0.1", "trials: expected int, got '2.5'"),
        ("S,4,7,5,nan,1.0,0.6,0.1", "top1: expected a finite number, got nan"),
        ("S,4,7,5,0.5,-0.1,0.6,0.1", "top5 must lie in [0, 1], got -0.1"),
        ("S,4,7,5,0.5,1.0,1e999,0.1", "map: expected a finite number, got inf"),
        ("S,4,7,5,0.5,1.0,0.6,x", "similarity: expected float, got 'x'"),
        ("S,abc,7,5,nan,-3,1e999,x", "n: expected int, got 'abc'"),
        # float() reads these, but a cell must be ASCII with no whitespace or "_"
        ("S,4,7,5,0.2_5, 0.5 ,\u0660.\u0665,+0.1", "top1: expected float, got '0.2_5'"),
        ("S,4,7,5,0.25, 0.5 ,\u0660.\u0665,+0.1", "top5: expected float, got ' 0.5 '"),
        ("S,4,7,5,0.25,0.5,\u0660.\u0665,+0.1", "map: expected float, got '\u0660.\u0665'"),
        ("S,4,7,5,0.25,0.5,0.5,0.1\t", "similarity: expected float, got '0.1\\t'"),
        ("S,\u0664,7,5,0.25,0.5,0.5,0.1", "n: expected int, got '\u0664'"),
    ])
    def test_cell_out_of_range(self, workspace, tmp_path, capsys, row, message):
        header = ",".join(fovalign.cli._EVAL_COLUMNS)
        content = f"{header}\nS,4,7,5,0.5,1.0,0.6,0.1\n{row}\n".encode()
        assert self._report(workspace, tmp_path, content) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'bad-run' / 'eval.csv'}: row 2.{message}\n"
        )
        assert not (tmp_path / "r").exists()

    def test_cells_at_the_range_ends_are_copied_as_written(self, workspace, tmp_path):
        header = ",".join(fovalign.cli._EVAL_COLUMNS)
        rows = "S,1,0,1,0,1.0,1,-1\nS,007,12,3,1e-3,0.50,0.0,1.0\n"
        assert self._report(workspace, tmp_path, f"{header}\n{rows}".encode()) == 0
        run = tmp_path / "bad-run"
        expected = f"run,{header}\r\n" + "".join(f"{run},{r}\r\n" for r in rows.splitlines())
        assert (tmp_path / "r" / "report.csv").read_bytes() == expected.encode()


# every file each command writes, its manifest included (the README's
# "Artifacts per command" table)
ARTIFACTS = {
    "generate": ("bank.bicp", "images", "manifest.json"),
    "transform": ("foveated.ppm", "noise.ppm", "lowres.ppm", "mosaic.ppm", "manifest.json"),
    "train": ("checkpoint.bick", "metrics.csv", "manifest.json"),
    "evaluate": ("eval.csv", "summary.txt", "eval_manifest.json"),
    "report": ("report.csv", "manifest.json"),
}


@pytest.mark.parametrize("command, name", [(c, n) for c, names in ARTIFACTS.items() for n in names])
def test_existing_output_needs_force(workspace, tmp_path, capsys, command, name):
    evals = tmp_path / "evals"  # a run directory for report, with no result rows
    evals.mkdir()
    (evals / "eval.csv").write_text("subject,n,seed,trials,top1,top5,map,similarity\n")
    raw = json.loads(workspace["config"].read_text())
    raw["paths"]["runs"] = [str(evals)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    existing = out / name
    existing.parent.mkdir()
    if name == "images":  # a directory: a file inside it stands for its contents
        existing.mkdir()
        existing = existing / "sample_00000.ppm"
    existing.write_bytes(b"keep")
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    assert f"{out / name} already exists (pass --force to overwrite)" in capsys.readouterr().err
    assert existing.read_bytes() == b"keep"
    assert main(argv + ["--force"]) == 0


class TestNegativeSeed:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_seed_flag(self, workspace, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--config", str(workspace["config"]), "--out", str(out), "--seed", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    # each section with the command that first draws from its seed
    @pytest.mark.parametrize("section, command", [
        ("data", "generate"), ("provider", "generate"),
        ("training", "train"), ("evaluation", "evaluate"),
    ])
    def test_config_seed(self, workspace, tmp_path, capsys, section, command):
        raw = json.loads(workspace["config"].read_text())
        raw[section]["seed"] = -1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {section}.seed must be >= 0, got -1\n"

    def test_manifest_seed(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        config = json.loads(workspace["config"].read_text())
        manifest.write_text(json.dumps({"command": "train", "seed": -1, "config": config}))
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {manifest}: seed must be >= 0, got -1\n"

    def test_no_traceback_from_the_command_line(self, workspace, tmp_path):
        src_dir = str(Path(fovalign.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, inherited])))
        proc = subprocess.run(
            [sys.executable, "-m", "fovalign", "train", "--config", str(workspace["config"]),
             "--out", str(tmp_path / "out"), "--seed", "-1"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: --seed must be >= 0, got -1\n"


# every int and float setting of these sections but the sizes, which could
# ask for a huge allocation
SWEPT_SECTIONS = ("training", "fusion", "regulator")
EDGE_INTS = (0, 1, -1, 2**62)
EDGE_FLOATS = (0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, 0.5)


def edge_cases():
    for section in SWEPT_SECTIONS:
        for name, hint in typing.get_type_hints(type(getattr(RunConfig(), section))).items():
            if name.startswith("dim_") or name in ("batch_size", "epochs"):
                continue
            kinds = {hint, *typing.get_args(hint)}
            values = EDGE_FLOATS if float in kinds else EDGE_INTS if int in kinds else ()
            for value in values:
                yield pytest.param(section, name, value, id=f"{section}.{name}={value!r}")


@pytest.fixture(scope="module")
def bank_recipe(tmp_path_factory):
    """The tiny config on the bank provider for one epoch, its dataset generated."""
    root = tmp_path_factory.mktemp("edges")
    raw = tiny_config().to_dict()
    raw["provider"]["kind"] = "bank"
    raw["training"]["epochs"] = 1
    raw["paths"].update(dataset=str(root / "data"), checkpoint=str(root / "run" / "checkpoint.bick"))
    cfg = root / "config.json"
    cfg.write_text(json.dumps(raw))
    assert main(["generate", "--config", str(cfg)]) == 0
    return raw


def train_with(raw, tmp_path, section, name, value):
    """The exit code of `train` on `raw` with one setting changed."""
    raw = json.loads(json.dumps(raw))
    raw[section][name] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])


@pytest.mark.parametrize("section, name, value", list(edge_cases()))
def test_edge_value_ends_in_a_documented_exit(bank_recipe, tmp_path, capsys, section, name, value):
    code = train_with(bank_recipe, tmp_path, section, name, value)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, group", [("learning_rate", "att_b"), ("weight_decay", "att_w")])
def test_diverging_run_names_the_parameter_group(bank_recipe, tmp_path, capsys, name, group):
    assert train_with(bank_recipe, tmp_path, "training", name, 1e308) == 3
    first, dump = capsys.readouterr().err.split("\n", 1)
    assert first == f"numeric failure: parameter {group} outside the float32 range at epoch 0, batch 0"

    def reject(token):
        raise ValueError(f"bare {token} token in the dump")

    state = json.loads(dump, parse_constant=reject)
    assert state["non_finite"] == {"kind": "parameter", "group": group}
    assert "inf" in state["param_norms"].values()


def test_diverging_run_stops_before_its_checkpoint(bank_recipe, tmp_path, capsys):
    # the parameters outgrow float32 while float64 still holds them: the run
    # stops there, before an overflow warning and before a checkpoint holding inf
    raw = json.loads(json.dumps(bank_recipe))
    raw["training"]["epochs"] = 6
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = train_with(raw, tmp_path, "training", "learning_rate", 1e5)
    assert (code, [str(w.message) for w in caught]) == (3, [])
    first = capsys.readouterr().err.split("\n", 1)[0]
    assert first == "numeric failure: parameter att_w outside the float32 range at epoch 2, batch 2"
    assert not list(tmp_path.rglob("*.bick"))


_CAPPED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from fovalign.cli import main
sys.exit(main(sys.argv[1:]))
"""


def capped_env() -> dict:
    """The environment of a capped child: this package first on its path."""
    pytest.importorskip("resource")
    src_dir = str(Path(fovalign.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, inherited])),
                OPENBLAS_NUM_THREADS="1")


def test_config_too_large_for_memory_exits_2(tmp_path):
    # a 100000x100000 canvas is 224 GiB; the child's address space is capped
    # at 3 GiB, so the refused allocation never reaches the host
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"image_size": 100000}}))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, "generate", "--config", str(cfg),
         "--out", str(tmp_path / "data")],
        capture_output=True, text=True, timeout=120, env=capped_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory: ")
    assert "(3, 100000, 100000)" in proc.stderr  # NumPy names the refused array
    # images/ exists by then, so the dataset directory is named as incomplete
    assert proc.stderr.rstrip().endswith(
        f"; {tmp_path / 'data'} is left incomplete, with no bank.bicp written by this run")
    assert (tmp_path / "data" / "images").is_dir()
    assert not (tmp_path / "data" / "bank.bicp").exists()
    assert "Traceback" not in proc.stderr


# integer settings past int64, each run by the command that first uses it; left
# to run, NumPy refuses the dimension, a bank level wraps negative, or the
# value overflows a C long, each in a traceback
BEYOND_INT64 = {
    "data.dim_neural": ("generate", 10**19),
    "data.bank_levels": ("generate", [10**19 + 1]),
    "transforms.kernel_size": ("train", 2**63 + 1),
    "transforms.perturbation": ("train", 2**64),
    "evaluation.trials": ("evaluate", 2**63),
}

# runs each {name: argv} of stdin through main under the cap, and prints
# {name: [exit code, stderr]}; an escaping exception is exit 1 with its traceback
_CAPPED_RUNS = """
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from fovalign.cli import main
results = {}
for name, argv in json.load(sys.stdin).items():
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            traceback.print_exc()
    results[name] = [code, err.getvalue()]
json.dump(results, sys.stdout)
"""


def capped_runs(root: Path, cases: dict) -> dict:
    """[exit code, stderr] of each case, {name: (command, {field: value})},
    with each field set to its value on the tiny config, all run in one child
    capped at 3 GiB of address space."""
    runs = {}
    for case, (command, fields) in cases.items():
        raw = tiny_config().to_dict()
        raw["regulator"]["kernel_max"] = None  # resolved from the kernel size
        for field, value in fields.items():
            section, name = field.split(".")
            raw[section][name] = value
        cfg = root / f"{case}.json"
        cfg.write_text(json.dumps(raw))
        runs[case] = [command, "--config", str(cfg), "--out", str(root / case)]
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUNS], input=json.dumps(runs),
                          capture_output=True, text=True, timeout=120, env=capped_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def beyond_int64_runs(tmp_path_factory):
    """[exit code, stderr] of each BEYOND_INT64 case."""
    cases = {field: (command, {field: value}) for field, (command, value) in BEYOND_INT64.items()}
    return capped_runs(tmp_path_factory.mktemp("int64"), cases)


@pytest.mark.parametrize("field", list(BEYOND_INT64))
def test_int_beyond_int64_exits_2_naming_the_field(beyond_int64_runs, field):
    value = BEYOND_INT64[field][1]
    where, shown = (f"{field}[0]", value[0]) if isinstance(value, list) else (field, value)
    assert beyond_int64_runs[field] == [2, f"error: {where} must fit int64, got {shown}\n"]


# sizes within int64 whose arrays NumPy cannot describe, each run by the
# command that makes the array; left to run, each ends in a traceback:
# "ValueError: array is too big", or on the full gallery's rank table
# "iterator is too large"
_ONE_FEATURE_ROW = {"views.noise": False, "views.lowres": False, "views.mosaic": False,
                    "data.bank_levels": [1]}  # one view at one level: 44 * dim_feature float32s
TOO_BIG = {
    "canvas 2**31+1": ("generate", {"data.image_size": 2**31 + 1},
                       "3 * data.image_size**2 = 3 * 2147483649**2 = "
                       "13835058068167065603 elements of the float64 canvas; one array holds at "
                       "most 1152921504606846975"),
    "canvas 10**10": ("generate", {"data.image_size": 10**10},
                      "3 * data.image_size**2 = 3 * 10000000000**2 = "
                      "300000000000000000000 elements of the float64 canvas; one array holds at "
                      "most 1152921504606846975"),
    "features 2**62": ("generate", {"provider.dim_feature": 2**62},
                       "samples * len(data.bank_levels) * views * "
                       "provider.dim_feature = 44 * 3 * 4 * 4611686018427387904 = "
                       "2434970217729660813312 elements of the float32 bank features; one array "
                       "holds at most 2305843009213693951"),
    "clean 2**55": ("generate", {**_ONE_FEATURE_ROW, "provider.dim_feature": 2**55},
                    "samples * provider.dim_feature = 44 * 36028797018963968 = "
                    "1585267068834414592 elements of the float64 clean-image features; one "
                    "array holds at most 1152921504606846975"),
    "neural noise 2**62": ("generate", {"data.dim_neural": 2**62},
                           "samples * data.dim_neural = 44 * 4611686018427387904 = "
                           "202914184810805067776 elements of the float64 neural-noise block; one "
                           "array holds at most 1152921504606846975"),
    "rank table 2**62": ("evaluate", {"evaluation.trials": 2**62, "evaluation.gallery_sizes": [4]},
                         "evaluation.trials * data.test_classes = 4611686018427387904 * 4 = "
                         "18446744073709551616 elements of the int64 rank table; one array holds "
                         "at most 1152921504606846975"),
    # each fusion size first shapes a (16, 2**62) matrix, 16 being
    # dim_feature or dim_latent; the message names that parameter
    **{f"fusion {field} 2**62": ("train", {f"fusion.{field}": 2**62},
                                 "shape (16, 4611686018427387904) = 73786976294838206464 elements "
                                 f"of the float64 parameter {name}; one array holds at most "
                                 "1152921504606846975")
       for field, name in [("dim_latent", "proj_w"), ("dim_hidden", "ev_w1"),
                           ("dim_bottleneck", "pur_w1")]},
}


@pytest.fixture(scope="module")
def too_big_runs(tmp_path_factory, workspace):
    """[exit code, stderr] of each TOO_BIG case's command; `train` reads the
    workspace's dataset."""
    dataset = {"paths.dataset": str(workspace["root"] / "data")}
    cases = {case: (command, {**fields, **dataset}) for case, (command, fields, _) in TOO_BIG.items()}
    return capped_runs(tmp_path_factory.mktemp("too_big"), cases)


@pytest.mark.parametrize("case", list(TOO_BIG))
def test_array_numpy_cannot_describe_exits_2_naming_the_fields(too_big_runs, case):
    assert too_big_runs[case] == [2, f"error: {TOO_BIG[case][2]}\n"]


def test_seed_beyond_int64_still_trains(bank_recipe, tmp_path, capsys):
    assert train_with(bank_recipe, tmp_path, "training", "seed", 2**70) == 0, capsys.readouterr().err
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["seed"] == 2**70


def test_main_parses_every_call_with_one_tree(workspace, tmp_path, capsys):
    # `main` builds its argparse tree once per process; after each command,
    # a refused flag and --help, every call still parses as a fresh tree would
    parser = fovalign.cli.build_parser()
    built = fovalign.cli.build_parser.cache_info().misses
    raw = json.loads(workspace["config"].read_text())
    raw["paths"]["runs"] = [str(tmp_path / "evaluate")]  # report reads evaluate's output below
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))

    def outcome(call, argv):
        """(result or exit code, stdout, stderr) of call(argv)."""
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
        return (result, *capsys.readouterr())

    def fresh(argv):
        return fovalign.cli.build_parser.__wrapped__().parse_args(argv)

    calls = [([name, "--config", str(cfg), "--out", str(tmp_path / name)], 0) for name in COMMANDS]
    calls += [(["train", "--bogus"], 2), (["--help"], 0),
              (["evaluate", "--config", str(cfg), "--out", str(tmp_path / "again")], 0)]
    for argv, code in calls:
        result, _, err = outcome(main, argv)
        assert result == code, err
        assert outcome(parser.parse_args, argv) == outcome(fresh, argv)
    assert fovalign.cli.build_parser.cache_info().misses == built
    assert (tmp_path / "report" / "report.csv").exists()


class TestErrorSurface:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"classez": 3}}))
        assert main(["generate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: data.classez: unknown key\n"

    def test_non_finite_config_value(self, tmp_path, capsys):
        # NaN is a JSON literal that Python's json module accepts
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"transforms": {"gamma": NaN}}')
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert "transforms.gamma: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_center_outside_the_image(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "transforms": {"center": [100, 100]}, "data": {"image_size": 32},
        }))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert "transforms.center [100, 100] lies outside the 32x32 image" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_scale_collapsing_the_image(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"image_size": 8}}))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert "transforms.scale_mosaic 0.0625 collapses the 8x8 image" in err
        assert not (tmp_path / "d").exists()

    def test_neural_noise_past_the_float_range(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("a sample was rendered before the noise was checked")

        monkeypatch.setattr(fovalign.datagen, "render_sample", unreachable)
        raw = tiny_config().to_dict()
        raw["data"]["neural_noise"] = 1e308
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: data.neural_noise 1e+308 takes the neural vectors past the float range\n"
        )
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not valid JSON: 'utf-8' codec can't decode")
        assert "Traceback" not in err

    def test_config_nested_too_deep(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["train", "--config", str(deep), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {deep} is not valid JSON: maximum recursion depth exceeded")
        assert "Traceback" not in err

    def test_console_script_help(self):
        # Call the declared target the way pip's generated wrapper does, so a
        # plain checkout needs no installed `fovalign` executable on PATH.
        module, _, attr = declared_console_script("fovalign").partition(":")
        code = (
            "import importlib, sys; "
            f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())"
        )
        # Put the tree this process imported first, so neither a relative
        # PYTHONPATH nor an installed copy decides which fovalign the child runs.
        src_dir = str(Path(fovalign.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, inherited])))
        proc = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert_help_lists_commands(proc)

    def test_python_dash_m_help(self):
        src_dir = str(Path(fovalign.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, inherited])))
        proc = subprocess.run(
            [sys.executable, "-m", "fovalign", "--help"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert_help_lists_commands(proc)

    @pytest.mark.skipif(
        shutil.which("fovalign") is None, reason="no installed fovalign executable on PATH"
    )
    def test_installed_console_script_help(self):
        proc = subprocess.run(
            ["fovalign", "--help"], capture_output=True, text=True, timeout=60
        )
        assert_help_lists_commands(proc)
