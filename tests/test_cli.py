"""End-to-end command-line behaviour on a small workspace."""

import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from conftest import rewrite_bank_header, tiny_config, write_checkpoint_manifest
import fovalign
import fovalign.cli
import fovalign.datagen
import fovalign.fusion
from fovalign.alignment import init_parameters
from fovalign.checkpoint import load_checkpoint, save_checkpoint
from fovalign.cli import main
from fovalign.config import RunConfig, config_from_dict
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
        input_image = tmp_path / "in.ppm"
        write_pixmap(input_image, image)
        cfg = tmp_path / "cfg.json"
        raw = write_config(
            cfg,
            dataset=str(tmp_path / "data"),
            checkpoint=str(tmp_path / "run" / "checkpoint.bick"),
            input_image=str(input_image),
        )
        raw["transforms"].update(transforms)
        cfg.write_text(json.dumps(raw))
        return cfg, read_pixmap(input_image)

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
            written = read_pixmap(out / f"{name}.ppm")
            np.testing.assert_array_equal(to_bytes_quantized(written), to_bytes_quantized(view))

    def test_views_preserve_shape_and_range(self, tmp_path):
        rng = np.random.default_rng(18)
        cfg, image = self._config_for(tmp_path, rng.random((3, 32, 48)), kernel_size=9)
        out = tmp_path / "views"
        assert main(["transform", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("foveated", "noise", "lowres", "mosaic"):
            view = read_pixmap(out / f"{name}.ppm")
            assert view.shape == image.shape
            assert view.min() >= 0.0 and view.max() <= 1.0

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
        write_pixmap(image, np.zeros((3, 8, 8)))
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
        assert meta["epochs"] == cfg.training.epochs
        assert meta["dim_neural"] == cfg.data.dim_neural
        assert meta["view_names"] == cfg.views.enabled()
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
        def unreachable(*args, **kwargs):
            raise AssertionError("encode_pairs ran before the gallery check")

        monkeypatch.setattr(fovalign.cli, "encode_pairs", unreachable)
        raw = json.loads(workspace["config"].read_text())
        raw["evaluation"]["gallery_sizes"] = [2, 5]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
        assert "gallery size n=5 exceeds the test set size 4" in capsys.readouterr().err

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
            f"checkpoint array {name!r} has shape {arrays[name].shape}, "
            f"the configured model expects {want}"
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


# diverging runs overflow on their way to exit 3
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("section, name, value", list(edge_cases()))
def test_edge_value_ends_in_a_documented_exit(bank_recipe, tmp_path, capsys, section, name, value):
    code = train_with(bank_recipe, tmp_path, section, name, value)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
def test_diverging_run_names_the_forward_stage(bank_recipe, tmp_path, capsys, name):
    assert train_with(bank_recipe, tmp_path, "training", name, 1e308) == 3
    first, dump = capsys.readouterr().err.split("\n", 1)
    assert first.startswith("numeric failure: fusion forward failed at epoch 0, batch 1: ")

    def reject(token):
        raise ValueError(f"bare {token} token in the dump")

    assert json.loads(dump, parse_constant=reject)["loss"] == "nan"


class TestErrorSurface:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"classez": 3}}))
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "unknown config key: data.classez" in capsys.readouterr().err

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

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

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
