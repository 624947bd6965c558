#!/usr/bin/env python3
"""Run perfbench in alternating parent/change pairs and write a BENCH_<N>.json.

Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in the parent checkout and once in the change checkout, one process at
a time, T being BENCHMARK.json's ``run_seconds``; odd seeds run the parent
first, even seeds the change first, so a drift in the machine's speed falls
on both sides alike.  Each workload gets its own PAIRS (10) consecutive
seeds, the first workload's from --first-seed on: the pairs a claimed gain
is judged on, at least 9 of 10 won and a median gain above the parent's
IQR.  The JSON written to --out holds the machine's facts, both
commits, every run's result line, and per workload and end-to-end metric
(BENCHMARK.json's ``end_to_end``) each side's median, quartiles (numpy's
linear percentiles), min and max, the pairs the change won, the median's
change in percent, the parent's IQR and the median gain (parent median minus
change median, signed so that a gain is positive).

Exits 1 if a run does not print a result line, reads ``correct: false`` or
has a failed call; the JSON is written first either way.

Usage: python3 benchmarks/pair_bench.py --parent DIR --change DIR --out FILE
       [--workload W ...] [--first-seed S] [--claim WORKLOAD:METRIC]
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys

import numpy as np

PAIRS = 10


def _commit(checkout: str) -> str:
    return subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()


def _machine() -> dict:
    import scipy

    numba = importlib.util.find_spec("numba") is not None
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "numba": numba,
            "lane": "numba" if numba else "numpy"}


def _run(checkout: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run's result line, or None if it printed none.

    The checkout's __pycache__ directories go first, so each run compiles
    the package as a fresh checkout does: a cache left in one checkout
    would make that side's set-up probes cheaper and its peak RSS lower.
    """
    for cache in glob.glob(os.path.join(checkout, "**", "__pycache__"), recursive=True):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"{checkout}: {workload} seed {seed} exited {proc.returncode} "
                         f"without a result line:\n{proc.stderr[-2000:]}\n")
        return None


def _stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "min": float(min(values)), "max": float(max(values))}


def summarize(runs: list[dict], workload: str, metrics: dict[str, str]) -> dict:
    """Per-metric statistics of one workload's pairs; metrics maps a name to
    "lower" or "higher", the direction that is better."""
    mine = [r for r in runs if r["workload"] == workload]
    seeds = sorted({r["seed"] for r in mine})
    out = {}
    for name, better in metrics.items():
        side = {s: {r["seed"]: r["result"]["metrics"][name]["value"] for r in mine
                    if r["side"] == s and r["result"] and name in r["result"]["metrics"]}
                for s in ("parent", "change")}
        paired = [k for k in seeds if k in side["parent"] and k in side["change"]]
        if not paired:
            continue
        parent = _stats([side["parent"][k] for k in paired])
        change = _stats([side["change"][k] for k in paired])
        sign = 1.0 if better == "lower" else -1.0
        out[name] = {
            "parent": parent,
            "change": change,
            "change_better_pairs": sum(sign * (side["parent"][k] - side["change"][k]) > 0
                                       for k in paired),
            "pairs": len(paired),
            "median_change_pct": 100.0 * (change["median"] - parent["median"]) / parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
            "median_gain": sign * (parent["median"] - change["median"]),
        }
    out["all_correct"] = all(_ok(r) for r in mine)
    return out


def _ok(run: dict) -> bool:
    result = run["result"]
    return bool(result) and result.get("correct") is True and result.get("failed") == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="the BENCH_<N>.json to write")
    ap.add_argument("--workload", action="append", help="workloads, in order (default: all)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--claim", help="WORKLOAD:METRIC on which a gain is claimed")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs = []
    for i, workload in enumerate(workloads):
        for seed in range(args.first_seed + i * PAIRS, args.first_seed + (i + 1) * PAIRS):
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                result = _run(checkouts[side], workload, seed, seconds)
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "result": result})
                print(f"{workload} seed {seed} {side}: "
                      + (json.dumps(result.get("metrics")) if result else "no result"),
                      flush=True)

    seeds = ", ".join(f"{args.first_seed + i * PAIRS}-{args.first_seed + (i + 1) * PAIRS - 1} ({w})"
                      for i, w in enumerate(workloads))
    report = {
        "what": "paired perfbench runs, parent commit against this change"
                + (f" (gain claimed on {args.claim.replace(':', ' ')})" if args.claim else ""),
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                   "--trace 0",
        "pairing": f"seeds {seeds}; odd seeds run the parent first, even seeds the change first",
        "parent_commit": _commit(checkouts["parent"]),
        "change_commit": _commit(checkouts["change"]),
        "machine": _machine(),
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        report["claim"] = {"workload": workload, "metric": metric,
                           "rule": "change better in at least 9 of 10 pairs and median gain "
                                   "above the parent's IQR"}
    report["summary"] = {w: summarize(runs, w, metrics) for w in workloads}
    report["runs"] = runs
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    bad = [r for r in runs if not _ok(r)]
    for r in bad:
        sys.stderr.write(f"{r['side']} {r['workload']} seed {r['seed']}: not a correct run "
                         f"with 0 failed calls\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
