"""tools/parity.py on its tiny recipe: a commit against itself, a copy
with one number perturbed, and every recipe against its golden hash list."""

from __future__ import annotations

import csv
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fovalign.checkpoint import load_checkpoint, save_checkpoint
from fovalign.pixmap import write_pixmap
from fovalign.providers import load_embedding_bank, save_embedding_bank

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
SPEC = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = parity  # its dataclass looks the module up by name
SPEC.loader.exec_module(parity)


def _has_head() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(["git", "-C", str(parity.REPO), "rev-parse", "--verify", "HEAD"],
                          capture_output=True)
    return done.returncode == 0


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("parity") / "run"
    parity.run_recipe(parity.REPO, out, "tiny", "1")
    return out


@pytest.mark.skipif(not _has_head(), reason="needs git and a checkout with a HEAD commit")
def test_head_against_itself_matches_every_file(tmp_path, capsys):
    code = parity.main(["--parent", "HEAD", "--change", "HEAD", "--recipe", "tiny",
                        "--threads", "one", "--work", str(tmp_path)])
    report = capsys.readouterr().out
    assert code == 0, report
    first = report.splitlines()[0]
    assert first.startswith("threads one: ") and "files have the parent's sha256" in first
    same, total = first.split(": ")[1].split(" files")[0].split(" of ")
    assert same == total and int(total) > 20
    # the checkouts and run directories are gone again
    assert list(tmp_path.iterdir()) == []
    listed = subprocess.run(["git", "-C", str(parity.REPO), "worktree", "list"],
                            capture_output=True, text=True, check=True).stdout
    assert str(tmp_path) not in listed


@pytest.mark.parametrize("recipe", sorted(parity.RECIPES))
def test_every_artifact_has_its_golden_sha256(recipe, request, tmp_path):
    # the committed list pins every bit; on another NumPy, SciPy, BLAS or
    # machine the bits may move, and the artifact-parity CI job checks
    golden = json.loads((parity.GOLDEN / f"{recipe}.json").read_text(encoding="utf-8"))
    host = parity.host_fingerprint()
    moved = [f"{key} is {host.get(key)!r} here, {golden['host'].get(key)!r} in the list"
             for key in sorted(host.keys() | golden["host"].keys())
             if host.get(key) != golden["host"].get(key)]
    if moved:
        pytest.skip(f"tests/golden/{recipe}.json was written on another host: " + "; ".join(moved))
    if recipe == "tiny":
        run = request.getfixturevalue("tiny_run")
    else:
        run = tmp_path / "run"
        parity.run_recipe(parity.REPO, run, recipe, parity.THREADS[golden["threads"]])
    got, want = parity.file_hashes(run), golden["files"]
    problems = [f"differs  {path}" for path in sorted(got.keys() & want.keys())
                if got[path] != want[path]]
    problems += [f"missing  {path}" for path in sorted(want.keys() - got.keys())]
    problems += [f"extra    {path}" for path in sorted(got.keys() - want.keys())]
    assert not problems, (
        f"the {recipe} recipe's files do not match tests/golden/{recipe}.json:\n"
        + "\n".join(problems)
        + f"\n`python3 tools/parity.py --parent <base> --recipe {recipe}` gives the size of "
        "each change; a change that moves bits on purpose rewrites the lists with "
        "`python3 tools/parity.py --write-golden`"
    )


def test_every_artifact_of_the_recipe_is_there(tiny_run):
    names = {p.relative_to(tiny_run).as_posix() for p in tiny_run.rglob("*") if p.is_file()}
    for kind in ("synthetic", "bank"):
        for name in ("checkpoint.bick", "metrics.csv", "eval.csv", "summary.txt",
                     "manifest.json", "eval_manifest.json"):
            assert f"{kind}/{name}" in names
        assert f"report-{kind}/report.csv" in names
    assert {"data/bank.bicp", "views/foveated.ppm", "views/mosaic.ppm"} <= names


def test_a_perturbed_csv_number_is_named_by_file_and_column(tiny_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(tiny_run, copy)
    path = copy / "bank" / "metrics.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("t_upper")
    old = float(rows[2][column])
    rows[2][column] = repr(old * (1.0 + 1e-9))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)

    results = parity.compare_dirs(tiny_run, copy)
    differing = [r for r in results if r.status != "same"]
    assert [r.path for r in differing] == ["bank/metrics.csv"]
    assert list(differing[0].changes) == ["t_upper"]
    assert differing[0].changes["t_upper"] == pytest.approx(1e-9, rel=1e-3)
    report = parity.format_results("threads one", results)
    assert "differs      bank/metrics.csv  t_upper 1e-09" in report


def test_a_perturbed_checkpoint_array_is_named(tiny_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(tiny_run, copy)
    path = copy / "synthetic" / "checkpoint.bick"
    arrays, manifest = load_checkpoint(path)
    arrays["proj_b"][0] += 0.5
    save_checkpoint(path, arrays, {k: v for k, v in manifest.items() if k != "arrays"})
    (copy / "bank" / "summary.txt").unlink()

    results = {r.path: r for r in parity.compare_dirs(tiny_run, copy)}
    assert results["synthetic/checkpoint.bick"].status == "differs"
    changes = results["synthetic/checkpoint.bick"].changes
    assert list(changes) == ["proj_b"] and changes["proj_b"] == pytest.approx(0.5, abs=1e-6)
    assert results["bank/summary.txt"].status == "parent only"
    assert all(r.status == "same" for p, r in results.items()
               if p not in ("synthetic/checkpoint.bick", "bank/summary.txt"))


def test_checkpoint_header_changes_are_named_by_key(tiny_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(tiny_run, copy)
    path = copy / "bank" / "checkpoint.bick"
    arrays, manifest = load_checkpoint(path)
    header = {k: v for k, v in manifest.items() if k not in ("arrays", "final_loss")}
    header["config_hash"] = "0" * 64
    header["note"] = "added"
    save_checkpoint(path, arrays, header)

    differing = [r for r in parity.compare_dirs(tiny_run, copy) if r.status != "same"]
    assert [r.path for r in differing] == ["bank/checkpoint.bick"]
    assert differing[0].changes == {
        "header.config_hash": "differs",
        "header.final_loss": "parent only",
        "header.note": "change only",
    }
    report = parity.format_results("threads one", differing)
    assert ("differs      bank/checkpoint.bick  header.config_hash differs  "
            "header.final_loss parent only  header.note change only") in report


def test_a_numeric_header_change_is_given_its_relative_size(tiny_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(tiny_run, copy)
    path = copy / "synthetic" / "checkpoint.bick"
    arrays, manifest = load_checkpoint(path)
    header = {k: v for k, v in manifest.items() if k != "arrays"}
    header["final_loss"] *= 1.0 + 1e-12
    header["config_hash"] = "0" * 64
    save_checkpoint(path, arrays, header)

    differing = [r for r in parity.compare_dirs(tiny_run, copy) if r.status != "same"]
    assert [r.path for r in differing] == ["synthetic/checkpoint.bick"]
    changes = differing[0].changes
    assert list(changes) == ["header.config_hash", "header.final_loss"]
    assert changes["header.config_hash"] == "differs"
    assert changes["header.final_loss"] == pytest.approx(1e-12, rel=1e-3)
    report = parity.format_results("threads one", differing)
    assert "header.config_hash differs  header.final_loss 1e-12" in report


def test_a_perturbed_bank_names_its_blocks_and_header_keys(tiny_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(tiny_run, copy)
    path = copy / "data" / "bank.bicp"
    bank = load_embedding_bank(path)
    bank.features = bank.features.copy()
    bank.features[0, 0, 0, 0] += 0.25
    bank.tag = "renamed"
    save_embedding_bank(path, bank)

    differing = [r for r in parity.compare_dirs(tiny_run, copy) if r.status != "same"]
    assert [r.path for r in differing] == ["data/bank.bicp"]
    changes = differing[0].changes
    assert list(changes) == ["features", "header.tag"]
    assert changes["features"] == pytest.approx(0.25, abs=1e-6)
    assert changes["header.tag"] == "differs"
    report = parity.format_results("threads one", differing)
    assert "differs      data/bank.bicp  features 0.25  header.tag differs" in report


def test_a_flipped_pixmap_byte_is_given_its_level_change(tiny_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(tiny_run, copy)
    path = copy / "views" / "noise.ppm"
    data = bytearray(path.read_bytes())
    old = data[-1]
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))

    differing = [r for r in parity.compare_dirs(tiny_run, copy) if r.status != "same"]
    assert [r.path for r in differing] == ["views/noise.ppm"]
    assert differing[0].changes == {"levels": float(abs((old ^ 0xFF) - old))}
    report = parity.format_results("threads one", differing)
    assert f"differs      views/noise.ppm  levels {abs((old ^ 0xFF) - old)}" in report

    # a pixmap of another size, and one that does not read
    write_pixmap(path, np.zeros((3, 8, 8), dtype=np.uint8))
    assert parity.pixmap_changes(tiny_run / "views" / "noise.ppm", path) == {"levels": "shape"}
    path.write_bytes(b"P6\n2 2\n255\n")
    changes = parity.pixmap_changes(tiny_run / "views" / "noise.ppm", path)
    assert list(changes) == ["unreadable"] and "raster has 0 bytes" in changes["unreadable"]
