#!/usr/bin/env python3
"""Benchmark runner for fovalign.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through the public CLI entry `fovalign.cli.main` in this
one process, in a closed loop (each command starts when the previous one
has returned), and prints one line per metric followed by a JSON result
line. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
workload once untraced and once traced and reports the per-layer metrics.
Every run checks the program's outputs (see `check_pass`). Work files go
to `.bench_work/` under the repository root; the run record (versions,
seeds, thread count, metrics with sample counts) and the spans of a traced
run are written to `.bench_work/records/`.

See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # script start, which `DEADLINE_S` counts from

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Patches, Tracer, has_ancestor, layer_stats

REPO = Path(__file__).resolve().parent.parent
WORK = REPO / ".bench_work"
WORK_RECORDS = WORK / "records"
BLAS_THREADS = 1  # single-process CPU target; must not exceed nproc
PERIOD_S = 0.025  # host-speed sampling period, see HostSpeed
MIN_SAMPLES = 5  # host-speed samples behind each measured interval
REFERENCE_S = 0.0006  # the reference kernel's time on an idle core
SETUP_PROBES = 5  # fresh processes whose set-up time `setup_s` takes the median of
TAIL_BEYOND = 10  # epochs that must lie beyond the tail percentile
# 50-way top-1 gates: 0.60 on the README recipe (calibrated 0.88); the
# 20-epoch bench model scored 0.68 to 1.00 over 55 train-* seeds, so it is
# held to 0.50, 25 times the 0.02 chance level
TOP1_GATES = {"bench": 0.50, "full": 0.60, "tiny": None}
DEADLINE_S = 150.0  # start no new pass after this; the run must end within 180 s

# README smoke recipe: 60 classes with 50 held out, 48 renderings per
# training class (480 samples), batch 32, regulator on.
_SMOKE = {
    "data": {"classes": 60, "test_classes": 50, "train_samples_per_class": 48},
    "training": {"batch_size": 32},
    "regulator": {"enabled": True},
    "evaluation": {"trials": 20},
}


@dataclass(frozen=True)
class Workload:
    overrides: dict
    galleries: tuple[int, ...]
    epochs: int  # training epochs under the bench recipe
    generates: int  # generate runs before the passes of an untraced run
    min_passes: int
    evaluations: int  # evaluate runs per pass; each must write the same eval.csv
    setup_command: str  # the command whose set-up `setup_s` measures


def _merge(base: dict, extra: dict) -> dict:
    out = json.loads(json.dumps(base))
    for key, value in extra.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


WORKLOADS = {
    "train-synthetic": Workload(
        overrides=_merge(_SMOKE, {"provider": {"kind": "synthetic"}}),
        galleries=(50,), epochs=20, generates=2, min_passes=2, evaluations=5,
        setup_command="train",
    ),
    "train-bank": Workload(
        overrides=_merge(_SMOKE, {"provider": {"kind": "bank"}}),
        galleries=(50,), epochs=20, generates=2, min_passes=2, evaluations=5,
        setup_command="train",
    ),
    "eval-gallery": Workload(
        overrides=_merge(_SMOKE, {
            "provider": {"kind": "synthetic"},
            "data": {"classes": 1010, "test_classes": 1000},
        }),
        galleries=(1000, 200, 50), epochs=12, generates=1, min_passes=1, evaluations=1,
        setup_command="evaluate",
    ),
}

# "bench" shortens the README's 150 epochs at lr 1e-4 to the workload's
# epochs (20 on train-*) at lr 3e-3 so one run fits the time budget; "full"
# is the README recipe, where the calibrated 50-way top-1 is 0.88; "tiny" is
# the self-test's.
RECIPES = {
    "bench": {"training": {"learning_rate": 3e-3}},
    "full": {"training": {"epochs": 150, "learning_rate": 1e-4}},
    "tiny": {
        "training": {"epochs": 12, "learning_rate": 1e-3, "batch_size": 8},
        "data": {"train_samples_per_class": 16, "image_size": 32, "bank_levels": [1, 11, 21]},
        "transforms": {"kernel_size": 11},
        "evaluation": {"trials": 2},
    },
}
_TINY_CLASSES = {"train-synthetic": (52, 50), "train-bank": (52, 50), "eval-gallery": (60, 58)}

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("train_s", "s"), ("epoch_s_p50", "s"), ("epoch_s_tail", "s"),
    ("evaluate_s", "s"), ("generate_s", "s"), ("top1_50way", "fraction"),
    ("peak_rss_mb", "MiB"),
]


def build_config(workload: str, recipe: str, seed: int, dataset: str) -> dict:
    """The generated config. The workload seed shifts the calibrated data,
    training and evaluation seeds (123, 42, 7), so seed 0 reproduces them."""
    w = WORKLOADS[workload]
    cfg = _merge(_merge(w.overrides, {"training": {"epochs": w.epochs}}), RECIPES[recipe])
    galleries = list(w.galleries)
    if recipe == "tiny":
        classes, test = _TINY_CLASSES[workload]
        cfg = _merge(cfg, {"data": {"classes": classes, "test_classes": test}})
        galleries = sorted({test, 50}, reverse=True)
    return _merge(cfg, {
        "data": {"seed": 123 + seed},
        "training": {"seed": 42 + seed},
        "evaluation": {"seed": 7 + seed, "gallery_sizes": galleries},
        "paths": {"dataset": dataset, "checkpoint": "run/checkpoint.bick"},
    })


# -- bookkeeping -------------------------------------------------------------


class CommandFailed(Exception):
    pass


@dataclass
class Status:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"check failed: {text}", file=sys.stderr)


@dataclass
class PassResult:
    wall_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    top1: float | None = None


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for child in sorted(path.iterdir()):
            h.update(child.name.encode())
            h.update(bytes.fromhex(_digest(child)))
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def _top1_50(eval_csv: Path) -> float:
    with open(eval_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if int(row["n"]) == 50:
                return float(row["top1"])
    raise CommandFailed(f"{eval_csv} has no 50-way row")


class HostSpeed:
    """How fast the shared host runs right now, from a fixed reference kernel.

    The cores of the machine the benchmark was built on are shared with
    other tenants. Measured with this kernel, one core flips between a fast
    and a slow state (about 1.6 times slower) within fractions of a second,
    and stays slow for tens of seconds at times. Array work slows more than
    interpreter work. So while it is on, an interval timer interrupts the
    run every `PERIOD_S` and times a reference kernel that mixes the kinds
    of work fovalign does: `math.fsum` over 64-value rows,
    `scipy.ndimage.correlate1d` over a 3x64x64 image, and 64x64 matrix
    products. It runs no fovalign code and changes none of its state, so
    a change to the program moves the reported times in full.

    `since(mark)` returns an interval's wall time without the time spent in
    the kernel, and the same time stated at the speed of an idle core:
    the wall time times the mean of `REFERENCE_S / kernel time` over the
    samples taken inside the interval. With samples spread evenly in time,
    that mean weights each moment by how much work the core could do in
    it. An interval too short for `MIN_SAMPLES` samples gets the missing
    ones right after it ends.
    """

    def __init__(self, numpy, ndimage):
        rng = numpy.random.default_rng(0)
        self._np = numpy
        self._correlate = ndimage.correlate1d
        self._row = rng.random(64)
        self._mat = rng.random((64, 64))
        self._image = rng.random((3, 64, 64))
        self._taps = numpy.full(31, 1.0 / 31)
        self.samples: list[float] = []  # kernel times, in the order taken
        self.spent = 0.0  # time spent sampling, in and out of intervals
        self.on = False
        self._sampling = False

    def _sample(self) -> None:
        self._sampling = True  # a timer tick during a sample is dropped
        start = time.perf_counter()
        for _ in range(100):
            math.fsum(self._row)
        self._correlate(self._image, self._taps, axis=2, mode="reflect")
        for _ in range(2):
            self._np.exp(self._mat @ self._mat * 1e-3)
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start
        self._sampling = False

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:
            self._sample()

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.on = True
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.on = False

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark: tuple[float, float, int], end: float | None = None
              ) -> tuple[float, float]:
        """(wall time, wall time at idle-core speed) from `mark` to `end`,
        a `time.perf_counter()` reading that defaults to now."""
        end = time.perf_counter() if end is None else end
        start, spent, first = mark
        wall = end - start - (self.spent - spent)
        if not self.on:
            return wall, wall
        for _ in range(MIN_SAMPLES - (len(self.samples) - first)):
            self._sample()
        inside = self.samples[first:]
        return wall, wall * statistics.fmean(REFERENCE_S / t for t in inside)


class Bench:
    def __init__(self, prog, workload: str, recipe: str, seed: int, root: Path,
                 speed: HostSpeed):
        self.prog = prog
        self.workload = workload
        self.w = WORKLOADS[workload]
        self.recipe = recipe
        self.seed = seed
        self.root = root
        self.speed = speed
        self.status = Status()
        # per kind of interval (generate, train, epoch, evaluate, setup):
        # times at idle-core speed, and the wall times they came from
        self.times: dict[str, list[float]] = {}
        self.walls: dict[str, list[float]] = {}

    def record(self, kind: str, mark, end: float | None = None) -> None:
        wall, value = self.speed.since(mark, end)
        self.walls.setdefault(kind, []).append(wall)
        self.times.setdefault(kind, []).append(value)

    def cli(self, argv: list[str]) -> None:
        """Run one command through the CLI entry and record its time; its
        output goes to stderr."""
        self.status.attempted += 1
        mark = self.speed.mark()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = self.prog.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        self.record(argv[0], mark)
        if code != 0:
            self.status.failed += 1
            raise CommandFailed(f"`fovalign {' '.join(argv)}` exited with {code}")

    def write_config(self, directory: Path, dataset: str) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        cfg = build_config(self.workload, self.recipe, self.seed, dataset)
        (directory / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))

    def generate(self, directory: Path) -> dict[str, str]:
        with contextlib.chdir(directory):
            self.cli(["generate", "--config", "config.json"])
        data = directory / "data"
        return {f"data/{p}": _digest(data / p) for p in ("bank.bicp", "images", "manifest.json")}

    def run_pass(self, directory: Path, generate: bool) -> PassResult:
        """One closed-loop pass: [generate ->] train -> evaluate."""
        result = PassResult()
        start = time.perf_counter()
        self.write_config(directory, "data" if generate else "../data")
        if generate:
            result.digests.update(self.generate(directory))
        trainer_cls = self.prog.alignment.Trainer
        original = trainer_cls.__dict__["train_epoch"]

        def timed_epoch(trainer, epoch):
            mark = self.speed.mark()
            report = original(trainer, epoch)
            self.record("epoch", mark)
            return report

        with contextlib.chdir(directory):
            with Patches() as patches:
                patches.set(trainer_cls, "train_epoch", timed_epoch)
                self.cli(["train", "--config", "config.json"])
            first = None
            for _ in range(self.w.evaluations):
                self.cli(["evaluate", "--config", "config.json", "--force"])
                digest = _digest(Path("run/eval.csv"))
                if first is not None and digest != first:
                    self.status.problem(f"{directory.name}: repeated evaluate changed eval.csv")
                first = first or digest
        run = directory / "run"
        for name in ("checkpoint.bick", "metrics.csv", "eval.csv", "manifest.json",
                     "eval_manifest.json", "summary.txt"):
            result.digests[f"run/{name}"] = _digest(run / name)
        result.top1 = _top1_50(run / "eval.csv")
        result.wall_s = time.perf_counter() - start
        return result

    def probe_setup(self, directory: Path) -> None:
        """Time one fresh process from its start to the first useful step of
        the workload's set-up command: train -> the first
        `Trainer.train_epoch`, evaluate -> `encode_pairs`."""
        self.status.attempted += 1
        argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                self.w.setup_command, "--config", "config.json", "--out", "probe"]
        mark = self.speed.mark()
        done = subprocess.run(argv, cwd=directory, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.split()
        if done.returncode != 0 or not lines:
            self.status.failed += 1
            raise CommandFailed(f"set-up probe of `{self.w.setup_command}` exited with "
                                f"{done.returncode}")
        # the probe's reading at its first useful step; perf_counter is the
        # system-wide monotonic clock, shared with this process
        self.record("setup", mark, end=float(lines[-1]))

    def check_pass(self, result: PassResult, reference: PassResult | None, what: str) -> None:
        gate = TOP1_GATES[self.recipe]
        if gate is not None and result.top1 < gate:
            self.status.problem(f"{what}: 50-way top-1 {result.top1} below the {gate} gate")
        if reference is None:
            return
        for name, digest in result.digests.items():
            if reference.digests.get(name) != digest:
                self.status.problem(f"{what}: {name} differs from the first pass")


def pin_to_fastest_cpu(rounds: int = 3) -> dict:
    """Pin this single-threaded process to the allowed CPU that runs a short
    pure-Python probe fastest, and report the probe times.

    On a shared machine one virtual CPU can run at two thirds of the speed
    of the other while its sibling hardware thread is busy with another
    tenant's work, and an unpinned process moves between the two.
    """
    if not hasattr(os, "sched_setaffinity"):
        return {"cpus": None, "chosen": None, "probe_s": {}}
    cpus = sorted(os.sched_getaffinity(0))
    row = [float(i) for i in range(64)]
    best: dict[int, float] = {}
    for _ in range(rounds):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            for _ in range(20000):
                math.fsum(row)
            best[cpu] = min(best.get(cpu, math.inf), time.perf_counter() - start)
    chosen = min(best, key=best.get)
    os.sched_setaffinity(0, {chosen})
    return {"cpus": cpus, "chosen": chosen, "probe_s": best}


# -- metrics -----------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, as
    (value, percentile), by nearest rank like `statistics.median_low`."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} epochs for the tail, got {n}")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(bench: Bench, passes: list[PassResult]) -> tuple[dict, dict]:
    """Returns ({name: (value, samples)}, notes). Times are medians of
    samples stated at idle-core speed (see HostSpeed); the notes give the
    medians of the wall times they came from."""
    metrics, notes = {}, {}
    for name, kind, pick in (
        ("setup_s", "setup", statistics.median),
        ("train_s", "train", statistics.median),
        ("epoch_s_p50", "epoch", statistics.median_low),
        ("epoch_s_tail", "epoch", lambda v: tail_percentile(v)[0]),
        ("evaluate_s", "evaluate", statistics.median),
        ("generate_s", "generate", statistics.median),
    ):
        values = bench.times[kind]
        metrics[name] = (pick(values), len(values))
        notes[name] = f"{pick(bench.walls[kind]):.4f} s wall"
    notes["epoch_s_tail"] += f", p{tail_percentile(bench.times['epoch'])[1]:.1f}"
    metrics["top1_50way"] = (passes[0].top1, len(passes))
    metrics["peak_rss_mb"] = (peak_rss_mib(), 1)
    return metrics, notes


PER_LAYER = [  # name, unit, better
    *[(f"transforms.{t}.{m}", u, "lower")
      for t in ("foveate", "add_noise", "resample") for m, u in (("calls", "count"), ("busy_s", "s"))],
    *[(f"providers.view.{v}.busy_s", "s", "lower") for v in ("foveated", "noise", "lowres", "mosaic")],
    ("providers.encode.calls", "count", "lower"), ("providers.encode.busy_s", "s", "lower"),
    ("providers.bank_features.calls", "count", "lower"),
    ("providers.bank_features.busy_s", "s", "lower"),
    ("providers.fov_cache_hit_ratio", "fraction", "higher"),
    ("providers.level_clamps", "count", "lower"),
    ("providers.bank_save.busy_s", "s", "lower"), ("providers.bank_save.bytes", "B", "lower"),
    ("providers.bank_load.busy_s", "s", "lower"), ("providers.bank_load.bytes", "B", "lower"),
    ("alignment.loss_and_gradients.calls", "count", "lower"),
    ("alignment.loss_and_gradients.busy_s", "s", "lower"),
    ("alignment.cosine.calls", "count", "lower"), ("alignment.cosine.pairs", "count", "lower"),
    ("alignment.cosine.busy_s", "s", "lower"),
    ("alignment.adamw.busy_s", "s", "lower"),
    ("alignment.train_epoch.self_s", "s", "lower"),
    ("alignment.encode_pairs.busy_s", "s", "lower"),
    ("fusion.forward.calls", "count", "lower"), ("fusion.forward.busy_s", "s", "lower"),
    ("fusion.forward.self_s", "s", "lower"), ("fusion.backward.busy_s", "s", "lower"),
    ("nn.exact_sum.calls", "count", "lower"), ("nn.exact_sum.rows", "count", "lower"),
    ("nn.exact_sum.busy_s", "s", "lower"),
    ("regulator.update.busy_s", "s", "lower"), ("regulator.kernel_moves", "count", "lower"),
    ("regulator.distinct_kernels", "count", "lower"),
    ("evaluation.nway.calls", "count", "lower"), ("evaluation.nway.queries", "count", "lower"),
    ("evaluation.nway.busy_s", "s", "lower"),
    ("datagen.generate.busy_s", "s", "lower"), ("datagen.render.busy_s", "s", "lower"),
    *[(f"pixmap.{op}.{m}", u, "lower")
      for op in ("read", "write") for m, u in (("calls", "count"), ("bytes", "B"), ("busy_s", "s"))],
    ("checkpoint.save.busy_s", "s", "lower"), ("checkpoint.load.busy_s", "s", "lower"),
    *[(f"cli.{c}.self_s", "s", "lower") for c in ("generate", "train", "evaluate")],
    ("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower"),
]

def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Per-layer values from the traced pass's spans and boundary counts."""
    spans = tracer.spans
    stats = layer_stats(spans)
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, _, field_name = name.rpartition(".")
        st = stats.get(layer)
        if field_name in ("calls", "busy_s", "self_s"):
            values[name] = getattr(st, field_name) if st else 0
        elif field_name in ("rows", "pairs", "bytes", "queries"):
            values[name] = st.work if st else 0
    served = sum(s.work for i, s in enumerate(spans)
                 if s.name == "fusion.forward" and has_ancestor(spans, i, "alignment.train_epoch"))
    rendered = sum(1 for i, s in enumerate(spans)
                   if s.name == "transforms.foveate"
                   and has_ancestor(spans, i, "alignment.train_epoch"))
    kernel_moves = stats["regulator.update"].work if "regulator.update" in stats else 0
    values.update({
        "providers.fov_cache_hit_ratio": (served - rendered) / served if served else 0.0,
        "providers.level_clamps": tracer.level_clamps,
        "regulator.kernel_moves": kernel_moves,
        "regulator.distinct_kernels": tracer.distinct_kernels,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
    })
    return values


# -- the run record ----------------------------------------------------------


def git_commit() -> str | None:
    """HEAD's commit read from .git without starting a process; None
    outside a git checkout."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_record(args, status: Status, metrics: dict, notes: dict, extra: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": {"data": 123 + args.seed, "training": 42 + args.seed,
                  "evaluation": 7 + args.seed},
        "recipe": args.recipe,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "correct": not status.problems and status.failed == 0,
        "attempted": status.attempted,
        "failed": status.failed,
        "problems": status.problems,
        "metrics": {name: {"value": v, "samples": n, "note": notes.get(name)}
                    for name, (v, n) in metrics.items()},
        **extra,
    }


# -- the two kinds of run ------------------------------------------------------


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    w = bench.w
    bench.write_config(bench.root, "data")
    first = bench.generate(bench.root)
    for i in range(1, w.generates):
        again = bench.root / f"generate{i}"
        bench.write_config(again, "data")
        if bench.generate(again) != first:
            bench.status.problem(f"generate {i} wrote other files than generate 0")
        shutil.rmtree(again)
    passes: list[PassResult] = []
    loop_start = time.perf_counter()
    while True:
        result = bench.run_pass(bench.root / f"pass{len(passes)}", generate=False)
        bench.check_pass(result, passes[0] if passes else None, f"pass {len(passes)}")
        passes.append(result)
        measured = time.perf_counter() - loop_start
        if len(passes) >= w.min_passes and (
            measured >= seconds
            or time.perf_counter() - _T0 + measured / len(passes) > DEADLINE_S
        ):
            break
    probe_dir = bench.root / f"pass{len(passes) - 1}"
    for _ in range(SETUP_PROBES):
        bench.probe_setup(probe_dir)
    metrics, notes = end_to_end_metrics(bench, passes)
    speed = bench.speed
    extra = {
        "passes": len(passes),
        "measured_s": time.perf_counter() - loop_start,
        "host_speed": {
            "period_s": PERIOD_S,
            "reference_s": REFERENCE_S,
            "spent_s": speed.spent,
            "samples_s": speed.samples,
        },
        "times_s": bench.times,
        "wall_times_s": bench.walls,
    }
    return metrics, notes, extra


def run_traced(bench: Bench, fovalign) -> tuple[dict, dict, dict]:
    untraced = bench.run_pass(bench.root / "untraced", generate=True)
    bench.check_pass(untraced, None, "untraced pass")
    tracer = Tracer(f"{bench.workload}/seed{bench.seed}").install(fovalign)
    try:
        traced = bench.run_pass(bench.root / "traced", generate=True)
    finally:
        tracer.uninstall()
    bench.check_pass(traced, untraced, "traced pass")
    values = per_layer_metrics(tracer, traced.wall_s - untraced.wall_s)
    WORK_RECORDS.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK_RECORDS / f"{bench.workload}-seed{bench.seed}-spans.jsonl")
    metrics = {name: (values[name], 1) for name, _, _ in PER_LAYER}
    extra = {"untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s}
    return metrics, {}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recipe", choices=sorted(RECIPES), default="bench")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    pinning = pin_to_fastest_cpu()
    sys.path.insert(0, str(REPO / "src"))
    try:
        import fovalign
        import fovalign.cli
    except ImportError as exc:
        print(f"error: cannot import fovalign from {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(fovalign.__file__).resolve().parent != REPO / "src" / "fovalign":
        print(f"error: imported fovalign from {fovalign.__file__}, not from {REPO / 'src'}",
              file=sys.stderr)
        return 2

    root = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    import numpy
    from scipy import ndimage

    speed = HostSpeed(numpy, ndimage)
    bench = Bench(fovalign, args.workload, args.recipe, args.seed, root, speed)
    try:
        if args.trace:
            # no sampling: a traced run reports no times that need it, and
            # samples taken inside a command would count as its self time
            metrics, notes, extra = run_traced(bench, fovalign)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            with speed:
                metrics, notes, extra = run_untraced(bench, args.seconds)
            units = dict(END_TO_END)
        extra["cpu_pinning"] = pinning
    except CommandFailed as exc:
        bench.status.problem(str(exc))
        print(json.dumps({"correct": False, "attempted": bench.status.attempted,
                          "failed": bench.status.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)

    record = run_record(args, bench.status, metrics, notes, extra)
    WORK_RECORDS.mkdir(parents=True, exist_ok=True)
    record_path = WORK_RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  recipe {args.recipe}  "
          f"trace {args.trace}  record {record_path.relative_to(REPO)}")
    for name, (value, samples) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<38} {value:>16.6f} {units[name]:<8} n={samples}{note}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": bench.status.attempted,
        "failed": bench.status.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
