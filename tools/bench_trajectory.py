#!/usr/bin/env python3
"""Summarise benchmark run records into one committed BENCH_<label>.json.

    python3 tools/bench_trajectory.py --records .bench_work/records \\
        --label blur_operator --commit <sha> \\
        --smoke-top1 0.88 --smoke-wall-s 41.2 \\
        --tier1-wall-s 84.0 --tier1-result "532 passed, 1 skipped"

Reads every `<workload>-seed<n>-trace<t>.json` record that `bench/run.py`
wrote under `--records`, and refuses a directory whose records disagree
on `git_commit`, naming the files on each side. Records of an uncommitted
change carry the stamp of the commit it sits on, so this does not tell
them from that commit's own records. For the untraced records
(`--trace 0`) it gives, per workload and end-to-end metric, the median,
the first and third quartiles and the value of each seed; for the traced
records (`--trace 1`) it copies the per-layer metrics of each seed. The smoke figures are those
of acceptance criterion 7 (`tests/test_acceptance.py`), which the records
do not hold. The file is written to `BENCH_<label>.json` at the repository
root, or to `--out`.

With `--parent-records DIR`, the records of the parent commit, run with the
same harness and settings, are read too. Each workload's end-to-end metric
then also holds the parent's quartiles, the same-seed pairs the change won
and lost (ties count for neither), the gain of the median in the metric's
better direction (from BENCHMARK.json), the parent's interquartile range,
and `gain_shown`: at least nine tenths of the pairs won and a median gain
larger than that range. The parent's traced per-layer metrics go beside the
change's. A workload that both sides ran must have the same untraced seeds
on each side, or the tool stops and names the records that have no pair.
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
    """Every run record under `directory`, with its path as "file"; they
    must all carry one commit, so a record left by a measurement of other
    code is refused, by name."""
    paths = sorted(directory.glob("*-seed*-trace*.json"))
    records = [{**json.loads(p.read_text()), "file": p} for p in paths]
    if not records:
        raise SystemExit(f"no run records under {directory}")
    by_commit: dict[str, list[str]] = {}
    for path, record in zip(paths, records):
        by_commit.setdefault(str(record.get("git_commit")), []).append(path.name)
    if len(by_commit) > 1:
        sides = "; ".join(f"{commit}: {', '.join(names)}"
                          for commit, names in sorted(by_commit.items()))
        raise SystemExit(f"records under {directory} disagree on git_commit: {sides}")
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


def better_directions() -> dict[str, str]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def unpaired_records(change: list[dict], parent: list[dict]) -> list[Path]:
    """The untraced records, on either side, of a seed that the other side
    did not run, for each workload that both sides ran."""
    ours, theirs = {}, {}
    for side, records in ((ours, change), (theirs, parent)):
        for r in records:
            if r["trace"] == 0:
                side.setdefault(r["workload"], {})[r["seed"]] = r["file"]
    unpaired = []
    for workload in sorted(ours.keys() & theirs.keys()):
        for files, other in ((ours[workload], theirs[workload]),
                             (theirs[workload], ours[workload])):
            unpaired += [files[seed] for seed in sorted(files.keys() - other.keys())]
    return unpaired


def against_parent(change: dict, parent: dict, better: dict[str, str]) -> None:
    """Add the parent's figures and the same-seed comparison to each metric
    of `change`, an `end_to_end` result, where the parent ran the workload."""
    for workload, side in change.items():
        if workload not in parent:
            continue
        base = parent[workload]
        for name, metric in side["metrics"].items():
            if name not in base["metrics"]:
                continue
            old = base["metrics"][name]
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            olds = dict(zip(base["seeds"], old["by_seed"]))
            diffs = [sign * (olds[seed] - new)  # > 0: the change is better
                     for seed, new in zip(side["seeds"], metric["by_seed"]) if seed in olds]
            gain = sign * (old["median"] - metric["median"])
            iqr = old["q3"] - old["q1"]
            wins = sum(d > 0 for d in diffs)
            metric.update({
                "parent": old,
                "pairs": len(diffs),
                "wins": wins,
                "losses": sum(d < 0 for d in diffs),
                "median_gain": gain,
                "parent_iqr": iqr,
                "gain_shown": bool(diffs) and wins >= 0.9 * len(diffs) and gain > iqr,
            })


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
    parser.add_argument("--parent-records", type=Path, default=None,
                        help="the parent commit's records, to compare against")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default BENCH_<label>.json at the repository root)")
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
    if args.parent_records is not None:
        parent = load_records(args.parent_records)
        if environment(parent) != bench["environment"]:
            raise SystemExit("parent and change records disagree on the environment")
        unpaired = unpaired_records(records, parent)
        if unpaired:
            raise SystemExit("seeds run on one side only, so these records have no pair: "
                             + ", ".join(map(str, unpaired)))
        against_parent(bench["end_to_end"], end_to_end(parent), better_directions())
        bench["per_layer_parent"] = per_layer(parent)
    out = args.out or REPO / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
