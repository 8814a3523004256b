#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny recipe (about 25 seconds).

    python3 bench/selftest.py

It checks that BENCHMARK.json declares the metrics run.py emits. For every
workload it runs `run.py` untraced and traced as a child process
and checks that the run passes its own correctness check, that every
end-to-end and per-layer metric is emitted with its unit, that every child
span lies inside its parent, and that no self time is negative. It also
checks that the benchmark fails without a result when the program's
sources are missing. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
from tracer import Span, self_times

BENCH = Path(__file__).resolve().parent
SEED = 0


def fail(text: str) -> None:
    print(f"FAIL {text}")
    sys.exit(1)


def invoke(workload: str, trace: int, cwd: Path = run.REPO) -> tuple[int, list[str]]:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--recipe", "tiny"]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    return done.returncode, done.stdout.splitlines()


def check_declared() -> None:
    """BENCHMARK.json declares exactly the workloads and metrics run.py emits."""
    declared = json.loads((run.REPO / "BENCHMARK.json").read_text())
    if [w["name"] for w in declared["workloads"]] != list(run.WORKLOADS):
        fail(f"BENCHMARK.json workloads {declared['workloads']}")
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != run.END_TO_END:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] != run.PER_LAYER:
        fail("BENCHMARK.json per_layer differs from run.PER_LAYER")
    print("ok   BENCHMARK.json declares the emitted workloads and metrics")


def check_result(workload: str, trace: int) -> None:
    what = f"{workload} trace={trace}"
    code, lines = invoke(workload, trace)
    if code != 0 or not lines:
        fail(f"{what}: exit {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{what}: {result['correct']=} {result['failed']=} {result['attempted']=}")
    expected = dict(run.END_TO_END) if trace == 0 else {n: u for n, u, _ in run.PER_LAYER}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{what}: missing {sorted(set(expected) - set(metrics))}, "
             f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        if entry["unit"] != expected[name] or not math.isfinite(entry["value"]):
            fail(f"{what}: {name} = {entry}")
        if trace == 0 and entry["value"] <= 0:
            fail(f"{what}: end-to-end metric {name} is not positive: {entry['value']}")
        if name.endswith(".self_s") and entry["value"] < 0:
            fail(f"{what}: negative self time {name} = {entry['value']}")
    print(f"ok   {what}: {len(metrics)} metrics, {result['attempted']} commands")


def check_spans(workload: str) -> None:
    path = run.WORK_RECORDS / f"{workload}-seed{SEED}-spans.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    spans = [Span(r["name"], r["start"], r["end"], r["parent"], r["run_id"], r["work"])
             for r in rows]
    if not spans:
        fail(f"{workload}: no spans recorded")
    for i, s in enumerate(spans):
        if s.end < s.start:
            fail(f"{workload}: span {i} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if not (s.parent < i and p.start <= s.start and s.end <= p.end):
                fail(f"{workload}: span {i} {s.name} lies outside its parent {p.name}")
            if s.run_id != p.run_id:
                fail(f"{workload}: span {i} {s.name} has another run id than its parent")
        elif not s.name.startswith("cli."):
            fail(f"{workload}: root span {i} is {s.name}, not a CLI command")
    negative = [spans[i].name for i, t in enumerate(self_times(spans)) if t < 0]
    if negative:
        fail(f"{workload}: negative self time in {negative[:5]}")
    print(f"ok   {workload}: {len(spans)} spans nest inside their parents")


def check_bare_directory() -> None:
    """With only BENCHMARK.json and bench/, the run fails and prints no result."""
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(run.REPO / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = invoke("train-bank", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        fail(f"bare directory: exit {code}, stdout {lines[-1:]}")
    print(f"ok   bare directory: exit {code} without a result")


def main() -> int:
    check_declared()
    for workload in run.WORKLOADS:
        check_result(workload, 0)
        check_result(workload, 1)
        check_spans(workload)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
