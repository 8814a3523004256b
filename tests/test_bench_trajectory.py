"""tools/bench_trajectory.py on small hand-written run records."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
SPEC = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
bench_trajectory = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_trajectory)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2,
       "blas_threads": 1, "recipe": "bench", "seconds": 5.0}


def write_records(directory: Path, workload: str, values: dict[str, list[float]],
                  encode_calls: float = 3.0, **env) -> None:
    """Untraced records of seeds 0.. with `values` per metric, and one
    traced record of seed 0."""
    directory.mkdir(parents=True, exist_ok=True)
    for seed in range(len(next(iter(values.values())))):
        record = {
            **ENV, **env, "workload": workload, "seed": seed, "trace": 0,
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": v[seed], "samples": 2} for name, v in values.items()},
        }
        (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
    traced = {**ENV, **env, "workload": workload, "seed": 0, "trace": 1, "correct": True,
              "metrics": {"providers.encode.calls": {"value": encode_calls}}}
    (directory / f"{workload}-seed0-trace1.json").write_text(json.dumps(traced))


def run(tmp_path: Path, parent: Path | None) -> dict:
    out = tmp_path / "BENCH_test.json"
    argv = ["--records", str(tmp_path / "change"), "--label", "test", "--commit", "abc",
            "--smoke-top1", "0.88", "--smoke-wall-s", "20", "--tier1-wall-s", "40",
            "--tier1-result", "1 passed", "--out", str(out)]
    if parent is not None:
        argv += ["--parent-records", str(parent)]
    assert bench_trajectory.main(argv) == 0
    return json.loads(out.read_text())


@pytest.fixture
def records(tmp_path):
    parent = [5.0, 5.2, 4.9, 5.1, 5.0, 5.3, 4.8, 5.0, 5.1, 5.2]
    change = [4.0, 4.1, 4.0, 5.2, 4.1, 4.2, 3.9, 4.0, 4.0, 4.1]  # loses seed 3
    top1 = [0.9] * 10
    write_records(tmp_path / "parent", "train-synthetic", {"train_s": parent, "top1_50way": top1},
                  encode_calls=7.0)
    write_records(tmp_path / "change", "train-synthetic", {"train_s": change, "top1_50way": top1})
    write_records(tmp_path / "change", "train-bank", {"train_s": [1.0, 1.1]})
    return tmp_path


def test_pairs_and_quartiles_against_the_parent(records):
    bench = run(records, records / "parent")
    train_s = bench["end_to_end"]["train-synthetic"]["metrics"]["train_s"]
    assert (train_s["pairs"], train_s["wins"], train_s["losses"]) == (10, 9, 1)
    assert train_s["parent"]["median"] == 5.05
    assert train_s["parent"]["by_seed"][3] == 5.1
    assert train_s["median_gain"] == pytest.approx(5.05 - 4.05)
    assert train_s["parent_iqr"] == pytest.approx(5.175 - 5.0)
    assert train_s["gain_shown"] is True
    # higher is better for top-1, and ties count for neither side
    top1 = bench["end_to_end"]["train-synthetic"]["metrics"]["top1_50way"]
    assert (top1["wins"], top1["losses"], top1["gain_shown"]) == (0, 0, False)
    # a workload the parent did not run is reported alone
    assert "parent" not in bench["end_to_end"]["train-bank"]["metrics"]["train_s"]
    assert bench["per_layer_parent"]["train-synthetic"]["seed0"]["metrics"] == {
        "providers.encode.calls": 7.0
    }
    assert bench["per_layer"]["train-synthetic"]["seed0"]["metrics"] == {
        "providers.encode.calls": 3.0
    }


def test_without_parent_records_nothing_is_compared(records):
    bench = run(records, None)
    assert "parent" not in bench["end_to_end"]["train-synthetic"]["metrics"]["train_s"]
    assert "per_layer_parent" not in bench


def test_a_gain_inside_the_parent_spread_is_not_shown(tmp_path):
    write_records(tmp_path / "parent", "train-synthetic", {"train_s": [5.0, 6.0, 5.0, 6.0]})
    write_records(tmp_path / "change", "train-synthetic", {"train_s": [4.9, 5.9, 4.9, 5.9]})
    train_s = run(tmp_path, tmp_path / "parent")["end_to_end"]["train-synthetic"]["metrics"]["train_s"]
    assert train_s["wins"] == 4
    assert train_s["gain_shown"] is False


def test_a_seed_run_on_one_side_only_is_refused_naming_its_records(tmp_path):
    # a stale parent record of seed 7 and a change record of seed 3 would
    # each shift one side's median without a pair
    write_records(tmp_path / "parent", "train-synthetic", {"train_s": [5.0, 5.1, 5.2]})
    write_records(tmp_path / "stale", "train-synthetic", {"train_s": [9.0] * 8})
    stale = "train-synthetic-seed7-trace0.json"
    (tmp_path / "parent" / stale).write_text((tmp_path / "stale" / stale).read_text())
    write_records(tmp_path / "change", "train-synthetic", {"train_s": [4.0, 4.1, 4.2, 4.3]})
    with pytest.raises(SystemExit) as refused:
        run(tmp_path, tmp_path / "parent")
    assert str(refused.value) == (
        "seeds run on one side only, so these records have no pair: "
        f"{tmp_path / 'change' / 'train-synthetic-seed3-trace0.json'}, "
        f"{tmp_path / 'parent' / stale}"
    )


def test_records_from_another_environment_are_refused(records, tmp_path):
    other = tmp_path / "other"
    write_records(other, "train-synthetic", {"train_s": [5.0, 5.0]}, nproc=4)
    with pytest.raises(SystemExit, match="disagree on the environment"):
        run(records, other)


def test_records_of_two_commits_are_refused_naming_the_files(tmp_path):
    write_records(tmp_path / "change", "train-synthetic", {"train_s": [5.0, 5.0]}, git_commit="aaa")
    write_records(tmp_path / "change", "train-bank", {"train_s": [1.0]}, git_commit="bbb")
    with pytest.raises(SystemExit) as refused:
        run(tmp_path, None)
    assert str(refused.value) == (
        f"records under {tmp_path / 'change'} disagree on git_commit: "
        "aaa: train-synthetic-seed0-trace0.json, train-synthetic-seed0-trace1.json, "
        "train-synthetic-seed1-trace0.json; bbb: train-bank-seed0-trace0.json, "
        "train-bank-seed0-trace1.json"
    )
