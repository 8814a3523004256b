#!/usr/bin/env python3
"""Artifact parity between a parent commit and a change: one fixed gate.

    python3 tools/parity.py --parent REV [--change REV] [--recipe regulated|tiny]
        [--threads one,default] [--work DIR]
    python3 tools/parity.py --write-golden [--work DIR]

Checks REV out with `git worktree` under `.parity_work/` (gitignored) and
runs one fixed recipe there and in the change: `generate`, `transform
--seed 3`, then `train`, `evaluate` and `report` on the synthetic and on
the bank provider. The change is this working tree, or `--change REV`
checked out the same way. The recipe runs once with OPENBLAS_NUM_THREADS=1
and once at the default thread count, each time in a fresh process that
imports `fovalign` from its own tree's `src/`.

The `regulated` recipe has 80 classes, 72 of them held out, so `evaluate`
encodes and ranks its queries in two blocks of 64 and 8: for the full
72-way gallery, with no draws, and for 6- and 2-way galleries, whose
seeded draws carry from one block to the next. The kernel starts at 11
and moves over 9-15, and the bank stores levels 5/9/13, so kernel 11
ties between two levels and 15 is clamped. `tiny` is the same shape at a few seconds' cost,
with `transforms.scale_low` 0.3: its 40-pixel images go to 12 and back, so
the bilinear weights are not only the halving's 1/2, 1/4 and 3/4. Its bank
stores levels 1/9/13, so `generate` also foveates at kernel 1, which applies
no blur products.

Every file both runs wrote is compared by sha256. A CSV that differs is
given the largest relative change per column. A checkpoint that differs
is given the largest absolute change per array, and an embedding bank
the largest absolute change in its feature and its neural block; both
then name the header entries that differ, with the relative change of a
number. A pixmap that differs is given its largest absolute level change.
The checkouts are removed afterwards, and so are the run directories
unless a file differs. Exit status: 0 when every file matches, 1 when one
differs or exists on one side only, 2 when a checkout or a run fails.

`--write-golden` runs every recipe on this working tree with one BLAS
thread and writes `tests/golden/<recipe>.json`: the sha256 of each file,
keyed by its relative path, and the host fingerprint the hashes depend
on (NumPy and SciPy versions, NumPy's BLAS build and the machine type).
Tier-1 compares a fresh run with these lists on a host of the same
fingerprint. Exit status: 0 when the lists are written, 2 when a run fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORK = REPO / ".parity_work"
GOLDEN = REPO / "tests" / "golden"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRANSFORM_SEED = 3

_REGULATED_BASE = {
    "transforms": {"kernel_size": 11, "perturbation": 2},
    "regulator": {"kernel_min": 9, "kernel_max": 15},
    "data": {"bank_levels": [5, 9, 13]},
}
RECIPES = {
    "regulated": {
        **_REGULATED_BASE,
        "training": {"epochs": 12, "batch_size": 16, "learning_rate": 3e-3},
        "data": {**_REGULATED_BASE["data"], "classes": 80, "test_classes": 72,
                 "train_samples_per_class": 16},
        "evaluation": {"gallery_sizes": [72, 6, 2], "trials": 10},
    },
    "tiny": {
        **_REGULATED_BASE,
        "transforms": {**_REGULATED_BASE["transforms"], "scale_low": 0.3},
        "provider": {"dim_feature": 16},
        "fusion": {"dim_latent": 16, "dim_hidden": 16, "dim_bottleneck": 8},
        "training": {"epochs": 3, "batch_size": 4, "learning_rate": 3e-3},
        "data": {"bank_levels": [1, 9, 13], "classes": 5, "test_classes": 2,
                 "train_samples_per_class": 4, "image_size": 40, "dim_neural": 16},
        "evaluation": {"gallery_sizes": [2], "trials": 2},
    },
}
THREADS = {"one": "1", "default": None}

# every step runs in one process through the CLI entry point, so each tree
# is imported once; a step that does not return 0 ends the run
_RUNNER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from fovalign.cli import main
for argv in json.loads(sys.argv[2]):
    code = main(argv)
    if code:
        sys.exit(f"fovalign {' '.join(argv)} exited with {code}")
"""


def recipe_steps(recipe: str) -> tuple[dict[str, dict], list[list[str]]]:
    """The config files (name -> JSON object) and the CLI argument lists of
    one run of `recipe`, with paths relative to the run directory."""
    base = {**RECIPES[recipe], "paths": {
        "dataset": "data", "input_image": "data/images/sample_00000.ppm",
    }}
    configs = {"config.json": base}
    steps = [
        ["generate", "--config", "config.json"],
        ["transform", "--config", "config.json", "--seed", str(TRANSFORM_SEED),
         "--out", "views"],
    ]
    for kind in ("synthetic", "bank"):
        name = f"config-{kind}.json"
        configs[name] = {**base, "provider": {**base.get("provider", {}), "kind": kind},
                         "paths": {**base["paths"], "checkpoint": f"{kind}/checkpoint.bick",
                                   "runs": [kind]}}
        steps += [
            ["train", "--config", name],
            ["evaluate", "--config", name],
            ["report", "--config", name, "--out", f"report-{kind}"],
        ]
    return configs, steps


def run_recipe(tree: Path, out: Path, recipe: str, threads: str | None) -> None:
    """Run `recipe` with the `fovalign` of `tree` into the new directory
    `out`. `threads` sets the BLAS thread variables; None leaves BLAS at
    its default. Raises RuntimeError when a step fails."""
    out.mkdir(parents=True)
    configs, steps = recipe_steps(recipe)
    for name, config in configs.items():
        (out / name).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env.update({var: threads for var in THREAD_VARS})
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(tree / "src"), json.dumps(steps)],
        cwd=out, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"recipe failed in {tree}:\n{done.stdout}{done.stderr}")


# -- comparison ----------------------------------------------------------------


@dataclass
class FileResult:
    path: str
    status: str  # "same", "differs", "parent only" or "change only"
    changes: dict[str, float | str] = field(default_factory=dict)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def csv_changes(parent: Path, change: Path) -> dict[str, float | str]:
    """Largest relative change |b - a| / max(|a|, |b|) per column of two
    CSV files with a header row; "text" for a column whose non-numeric
    cells differ, and "rows" when the files differ in length."""
    with open(parent, newline="", encoding="utf-8") as fa, \
            open(change, newline="", encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return {"header": "differs"}
    out: dict[str, float | str] = {}
    if len(rows_a) != len(rows_b):
        out["rows"] = f"{len(rows_a) - 1} vs {len(rows_b) - 1}"
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, cell_a, cell_b in zip(rows_a[0], row_a, row_b):
            if cell_a == cell_b:
                continue
            try:
                relative = _relative(float(cell_a), float(cell_b))
            except ValueError:
                out[column] = "text"
                continue
            if out.get(column) != "text":
                out[column] = max(relative, out.get(column, 0.0))
    return out


def _fovalign():
    """This tree's `fovalign`, imported from its `src/` with the readers."""
    sys.path.insert(0, str(REPO / "src"))
    try:
        import fovalign.checkpoint
        import fovalign.errors
        import fovalign.pixmap
        import fovalign.providers
    finally:
        sys.path.remove(str(REPO / "src"))
    return fovalign


def _array_changes(arrays_a: dict, arrays_b: dict) -> dict[str, float | str]:
    """Largest absolute change per named array; "shape" or "missing" for an
    array that cannot be compared."""
    import numpy as np

    out: dict[str, float | str] = {}
    for name in sorted(set(arrays_a) | set(arrays_b)):
        if name not in arrays_a or name not in arrays_b:
            out[name] = "missing"
        elif arrays_a[name].shape != arrays_b[name].shape:
            out[name] = "shape"
        elif not np.array_equal(arrays_a[name], arrays_b[name], equal_nan=True):
            out[name] = float(np.max(np.abs(arrays_b[name] - arrays_a[name])))
    return out


def _header_changes(meta_a: dict, meta_b: dict) -> dict[str, float | str]:
    """Each header entry that differs, or that one side lacks, named as
    "header.<key>"; a numeric one is given its relative change."""
    out: dict[str, float | str] = {}
    for key in sorted(set(meta_a) | set(meta_b)):
        if key not in meta_b:
            out[f"header.{key}"] = "parent only"
        elif key not in meta_a:
            out[f"header.{key}"] = "change only"
        elif meta_a[key] != meta_b[key]:
            a, b = meta_a[key], meta_b[key]
            numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
            out[f"header.{key}"] = _relative(float(a), float(b)) if numeric else "differs"
    return out


def checkpoint_changes(parent: Path, change: Path) -> dict[str, float | str]:
    """Largest absolute change per array of two checkpoints (read through
    `load_checkpoint`), then the header entries that differ."""
    fv = _fovalign()
    try:
        arrays_a, meta_a = fv.checkpoint.load_checkpoint(parent)
        arrays_b, meta_b = fv.checkpoint.load_checkpoint(change)
    except fv.errors.FormatError as exc:
        return {"unreadable": str(exc)}
    meta_a, meta_b = ({k: v for k, v in m.items() if k != "arrays"} for m in (meta_a, meta_b))
    return {**_array_changes(arrays_a, arrays_b), **_header_changes(meta_a, meta_b)}


def bank_changes(parent: Path, change: Path) -> dict[str, float | str]:
    """Largest absolute change in the feature and the neural block of two
    embedding banks (read through `load_embedding_bank`), then the header
    entries that differ."""
    fv = _fovalign()
    try:
        banks = [fv.providers.load_embedding_bank(path) for path in (parent, change)]
    except (fv.errors.FormatError, fv.errors.ProtocolError) as exc:
        return {"unreadable": str(exc)}
    blocks = [{"features": bank.features, "neural": bank.neural} for bank in banks]
    names = [f.name for f in fields(fv.providers.BankHeader)]
    headers = [{name: getattr(bank, name) for name in names} for bank in banks]
    return {**_array_changes(*blocks), **_header_changes(*headers)}


def pixmap_changes(parent: Path, change: Path) -> dict[str, float | str]:
    """Largest absolute change of the 8-bit levels of two pixmaps (read
    through `read_pixmap`); "shape" when their sizes differ."""
    fv = _fovalign()
    try:
        # widened, so a difference of levels does not wrap around
        levels = [fv.pixmap.read_pixmap(path).astype("int16") for path in (parent, change)]
    except fv.errors.FormatError as exc:
        return {"unreadable": str(exc)}
    return _array_changes({"levels": levels[0]}, {"levels": levels[1]})


# how a differing file of each suffix is explained
EXPLAIN = {".csv": csv_changes, ".bick": checkpoint_changes, ".bicp": bank_changes,
           ".ppm": pixmap_changes}


def file_hashes(directory: Path) -> dict[str, str]:
    """The sha256 of every file under `directory`, keyed by its path
    relative to it."""
    return {p.relative_to(directory).as_posix(): _sha256(p)
            for p in directory.rglob("*") if p.is_file()}


def compare_dirs(parent: Path, change: Path) -> list[FileResult]:
    """One result per file under either directory, in path order."""
    hashes_a, hashes_b = file_hashes(parent), file_hashes(change)
    results = []
    for rel in sorted(hashes_a.keys() | hashes_b.keys()):
        if rel not in hashes_b:
            results.append(FileResult(rel, "parent only"))
        elif rel not in hashes_a:
            results.append(FileResult(rel, "change only"))
        elif hashes_a[rel] == hashes_b[rel]:
            results.append(FileResult(rel, "same"))
        else:
            explain = EXPLAIN.get(Path(rel).suffix)
            changes = explain(parent / rel, change / rel) if explain else {}
            results.append(FileResult(rel, "differs", changes))
    return results


def format_results(label: str, results: list[FileResult]) -> str:
    same = sum(r.status == "same" for r in results)
    lines = [f"{label}: {same} of {len(results)} files have the parent's sha256"]
    for r in results:
        if r.status == "same":
            continue
        detail = "  ".join(
            f"{k} {v:.3g}" if isinstance(v, float) else f"{k} {v}" for k, v in r.changes.items()
        )
        lines.append(f"  {r.status:<12} {r.path}" + (f"  {detail}" if detail else ""))
    return "\n".join(lines)


# -- golden lists --------------------------------------------------------------


def host_fingerprint() -> dict[str, str]:
    """What the artifacts' bits depend on besides the code: the NumPy and
    SciPy versions, the BLAS that NumPy was built with, and the machine."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": str(blas.get("name")),
        "blas_version": str(blas.get("version")),
        "blas_configuration": str(blas.get("openblas configuration")),
        "machine": platform.machine(),
    }


def write_golden(work: Path) -> list[Path]:
    """Run every recipe on this tree with one BLAS thread, in new
    directories under `work`, and write each one's `tests/golden` list."""
    host = host_fingerprint()
    GOLDEN.mkdir(exist_ok=True)
    written = []
    for recipe in sorted(RECIPES):
        run_recipe(REPO, work / recipe, recipe, THREADS["one"])
        golden = {"recipe": recipe, "threads": "one", "host": host,
                  "files": file_hashes(work / recipe)}
        path = GOLDEN / f"{recipe}.json"
        path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
    return written


# -- checkouts -----------------------------------------------------------------


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout.strip()


def add_worktree(rev: str, where: Path) -> Path:
    """A detached checkout of `rev` in a new directory under `where`."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    where.mkdir(parents=True, exist_ok=True)
    tree = Path(tempfile.mkdtemp(prefix=f"tree-{sha[:12]}-", dir=where))
    _git("worktree", "add", "--detach", "--force", str(tree), sha)
    return tree


def remove_worktree(tree: Path) -> None:
    _git("worktree", "remove", "--force", str(tree))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--parent", metavar="REV")
    target.add_argument("--write-golden", action="store_true",
                        help="write tests/golden/<recipe>.json for this working tree")
    parser.add_argument("--change", metavar="REV", default=None,
                        help="a commit to compare instead of the working tree")
    parser.add_argument("--recipe", choices=sorted(RECIPES), default="regulated")
    parser.add_argument("--threads", default="one,default",
                        help="comma-separated thread settings out of: one, default")
    parser.add_argument("--work", type=Path, default=WORK,
                        help="directory for the checkouts and runs (default .parity_work/)")
    args = parser.parse_args(argv)
    settings = args.threads.split(",")
    if any(s not in THREADS for s in settings):
        parser.error(f"--threads takes a comma-separated subset of {sorted(THREADS)}")

    args.work.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=args.work))
    if args.write_golden:
        try:
            for path in write_golden(workdir):
                print(path.relative_to(REPO))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    trees: dict[str, Path] = {}
    differ = False
    try:
        trees["parent"] = add_worktree(args.parent, workdir)
        trees["change"] = add_worktree(args.change, workdir) if args.change else REPO
        for setting in settings:
            runs = {side: workdir / f"{side}-{setting}" for side in trees}
            for side, tree in trees.items():
                run_recipe(tree, runs[side], args.recipe, THREADS[setting])
            results = compare_dirs(runs["parent"], runs["change"])
            differ |= any(r.status != "same" for r in results)
            print(format_results(f"threads {setting}", results))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        for tree in trees.values():
            if tree != REPO:
                remove_worktree(tree)
        if differ:
            print(f"the runs are kept in {workdir}")
        else:
            shutil.rmtree(workdir, ignore_errors=True)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
