#!/usr/bin/env python3
"""Summarise benchmark run records into one committed BENCH_<label>.json.

    python3 tools/bench_trajectory.py --records .bench_work/records \\
        --label blur_operator --commit <sha> \\
        --smoke-top1 0.88 --smoke-wall-s 41.2 \\
        --tier1-wall-s 84.0 --tier1-result "532 passed, 1 skipped"

Reads every `<workload>-seed<n>-trace<t>.json` record that `bench/run.py`
wrote under `--records`. For the untraced records (`--trace 0`) it gives,
per workload and end-to-end metric, the median, the first and third
quartiles and the value of each seed; for the traced records (`--trace 1`)
it copies the per-layer metrics of each seed. The smoke figures are those
of acceptance criterion 7 (`tests/test_acceptance.py`), which the records
do not hold. The file is written to `BENCH_<label>.json` at the repository
root.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENVIRONMENT = ("python", "numpy", "scipy", "nproc", "blas_threads", "recipe", "seconds")


def quartiles(values: list[float]) -> dict:
    """Median and the inclusive first and third quartiles."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def load_records(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*-seed*-trace*.json"))]
    if not records:
        raise SystemExit(f"no run records under {directory}")
    return records


def environment(records: list[dict]) -> dict:
    env = {}
    for key in ENVIRONMENT:
        seen = {json.dumps(r.get(key)) for r in records}
        if len(seen) > 1:
            raise SystemExit(f"records disagree on {key}: {sorted(seen)}")
        env[key] = json.loads(seen.pop())
    return env


def end_to_end(records: list[dict]) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in records if r["trace"] == 0}):
        runs = sorted((r for r in records if r["trace"] == 0 and r["workload"] == workload),
                      key=lambda r: r["seed"])
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {**quartiles(values), "by_seed": values}
        out[workload] = {
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    return out


def per_layer(records: list[dict]) -> dict:
    out = {}
    for r in sorted((r for r in records if r["trace"] == 1), key=lambda r: (r["workload"], r["seed"])):
        out.setdefault(r["workload"], {})[f"seed{r['seed']}"] = {
            "correct": r["correct"],
            "metrics": {name: m["value"] for name, m in r["metrics"].items()},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", required=True, help="the commit the records measure")
    parser.add_argument("--smoke-top1", type=float, required=True)
    parser.add_argument("--smoke-wall-s", type=float, required=True)
    parser.add_argument("--tier1-wall-s", type=float, required=True)
    parser.add_argument("--tier1-result", required=True)
    parser.add_argument("--note", action="append", default=[], help="free text, repeatable")
    args = parser.parse_args(argv)

    records = load_records(args.records)
    bench = {
        "label": args.label,
        "commit": args.commit,
        "harness": "python3 bench/run.py --workload W --seed N --seconds 5 --trace 0|1",
        "environment": environment(records),
        "end_to_end": end_to_end(records),
        "per_layer": per_layer(records),
        "smoke_criterion_7": {"top1_50way": args.smoke_top1, "wall_s": args.smoke_wall_s,
                              "gate": 0.60, "calibrated": 0.88},
        "tier1": {"wall_s": args.tier1_wall_s, "result": args.tier1_result},
        "notes": args.note,
    }
    out = REPO / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
