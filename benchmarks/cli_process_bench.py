#!/usr/bin/env python3
"""Time whole CLI processes, parent checkout against change, and check their bytes.

Each call is a fresh ``python -m swarmcov.cli SUBCOMMAND --config CFG --out
DIR`` process, run with the environment this script was started with, less
OPENBLAS_NUM_THREADS, so that each side starts as a user's process does.
The calls are every bundled config but the est_* ones, which run about a
minute each, and one ``estimate`` from the stored observation table of
artifact_digests.py.  For each call and pair the parent and the change run
one after the other, the parent first in even pairs and the change first in
odd ones, after one untimed call per side that leaves both with compiled
bytecode.  A call's CPU time is its process's user plus system time (from
the children's rusage), its wall time the time until it exits.

The output directory of every call is digested (SHA-256 over its file names
and bytes).  The script exits 1 if a call fails, if two calls of one side
differ, or if the parent's and the change's digests differ.  It writes the
runs, and per call each side's median CPU and wall time, under the key
"cli_processes" of the JSON file given by --out, keeping what else the file
holds (such as pair_bench.py's runs).

Usage: python3 benchmarks/cli_process_bench.py --parent DIR --change DIR
       --out FILE [--pairs N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

from artifact_digests import INPUTS, OBSERVED

BUNDLED = {"case1": "coverage", "case2": "coverage", "pde_decay": "pde",
           "pde_longrun": "pde", "graph": "graph"}
OBSERVATIONS = "observations_spaced.csv"


def _calls(checkout: str, work: str) -> list[tuple[str, str, str]]:
    """(name, subcommand, config path) of every timed call."""
    configs = os.path.join(checkout, "src", "swarmcov", "configs")
    calls = [(name, sub, os.path.join(configs, name + ".cfg")) for name, sub in BUNDLED.items()]
    for name, text in OBSERVED.items():
        path = os.path.join(work, name + ".cfg")
        with open(path, "w") as fh:
            fh.write(text)
        calls.append((name, "estimate", path))
    return calls


def _digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _run(checkout: str, sub: str, config: str, out: str) -> tuple[float, float, str]:
    """One call's (CPU seconds, wall seconds, output digest)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "swarmcov.cli", sub, "--config", config,
                           "--out", out], env=env, cwd=os.path.dirname(out),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {sub} {config} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, wall, _digest(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="the BENCH_<N>.json to write into")
    ap.add_argument("--pairs", type=int, default=5, help="timed pairs per call")
    args = ap.parse_args()
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs, problems = [], []
    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, OBSERVATIONS), "w") as fh:
            fh.write(INPUTS[OBSERVATIONS])
        calls = {side: _calls(path, work) for side, path in checkouts.items()}
        for k, (name, sub, _) in enumerate(calls["parent"]):
            digests = {}
            for pair in range(-1, args.pairs):  # pair -1: the untimed first calls
                for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                    out = os.path.join(work, f"{side}-{name}-{pair + 1}")
                    try:
                        cpu, wall, digest = _run(checkouts[side], sub, calls[side][k][2], out)
                    except RuntimeError as err:
                        problems.append(str(err))
                        continue
                    digests.setdefault(side, set()).add(digest)
                    if pair >= 0:
                        runs.append({"call": name, "side": side, "pair": pair, "cpu_s": cpu,
                                     "wall_s": wall, "digest": digest})
                        print(f"{name} pair {pair} {side}: cpu {cpu:.3f} s, wall {wall:.3f} s",
                              flush=True)
            sides = set().union(*digests.values()) if digests else set()
            if len(sides) != 1 or len(digests) != 2:
                problems.append(f"{name}: output digests differ: {digests}")

    summary = {}
    for name, _, _ in calls["parent"]:
        row = {}
        for metric in ("cpu_s", "wall_s"):
            med = {side: float(np.median([r[metric] for r in runs
                                          if r["call"] == name and r["side"] == side] or [np.nan]))
                   for side in checkouts}
            row[metric] = {**med, "change_pct": 100.0 * (med["change"] / med["parent"] - 1.0)}
        summary[name] = row
        print(f"{name}: cpu {row['cpu_s']['parent']:.3f} -> {row['cpu_s']['change']:.3f} s "
              f"({row['cpu_s']['change_pct']:+.1f} %), wall {row['wall_s']['parent']:.3f} -> "
              f"{row['wall_s']['change']:.3f} s ({row['wall_s']['change_pct']:+.1f} %)")

    report = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
    report["cli_processes"] = {
        "what": "fresh `python -m swarmcov.cli` processes, default environment "
                "(OPENBLAS_NUM_THREADS unset), parent against change; medians per call",
        "command": "python -m swarmcov.cli SUBCOMMAND --config CFG --out DIR",
        "pairs": args.pairs,
        "pairing": "even pairs run the parent first, odd pairs the change first",
        "cores": os.cpu_count(),
        "digests_match": not problems,
        "summary": summary,
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for problem in problems:
        sys.stderr.write(problem + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
