#!/usr/bin/env python3
"""swarmcov benchmark: CLI workloads, end-to-end metrics, traced per-layer split.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload agents --seed 1 --seconds 45 --trace 0

One process per run, importing swarmcov from ``src/`` once.  The run makes
the workload's inputs from the seed, measures set-up in separate probe
processes, then repeats whole rounds of the workload's CLI calls until
``--seconds`` have passed.  Every round must write the first round's
artifacts byte for byte; the last round's artifacts are checked
against independent references (``checks.py``).  The last line of stdout is
a JSON object: ``correct``, ``attempted`` and ``failed`` (CLI calls), and
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

The times that decide whether a change is a regression are CPU times
(user + system, every thread) scaled to a reference speed.  On a shared VM
the host's load changes how fast a core runs, by up to 2.5x for minutes at a
time, and wall time also counts the time a thread waits for a core.  So a
fixed job that does not use swarmcov (``reference_job``) runs before every
CLI call and set-up probe and after the last one, and the run's CPU times
are multiplied by ``REFERENCE_S`` over the median CPU time of that job in
the run.  The raw wall and CPU times are reported with the per-layer
metrics.

With ``--trace 1`` half the time runs untraced rounds and half runs traced
ones; spans go to ``.perfbench/traces/``, outside every CLI output
directory, and the tracing overhead is the traced minus the untraced median
round time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread, in this process and in the set-up probes, which inherit
# it: each of numpy's and scipy's OpenBLAS pools otherwise starts a thread
# that spins at import and after each BLAS call, adding CPU time that
# follows the machine's load rather than the program's work.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

SETUP_PROBES = 5

# imports swarmcov's CLI and parses one config, as every CLI process does
_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import swarmcov.cli
t1 = time.perf_counter()
swarmcov.cli.load_config(sys.argv[2], sys.argv[3])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""


# CPU time of ``reference_job`` on the 2-core VM (x86-64, 2.0 GHz) at its
# fastest observed speed; a fixed constant, so that scaled times compare
# across commits.
REFERENCE_S = 0.030
_REFERENCE_ARRAY = np.random.default_rng(0).random(200_000)


def reference_job() -> float:
    """CPU time of a fixed job of interpreted Python and numpy array work."""
    c0 = time.process_time()
    total, table = 0, {}
    for i in range(40_000):
        total += i * i % 7
        table[i & 1023] = total
    for _ in range(8):
        b = np.exp(-_REFERENCE_ARRAY) * _REFERENCE_ARRAY + np.sqrt(_REFERENCE_ARRAY)
        b.sort()
    np.random.default_rng(1).standard_normal(200_000)
    return time.process_time() - c0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probe(config: str, sub: str) -> dict:
    """One fresh interpreter: process start through import and first parse."""
    t0, c0 = time.perf_counter(), _children_cpu()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, SRC, config, sub],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    wall, cpu = time.perf_counter() - t0, _children_cpu() - c0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return dict(json.loads(proc.stdout), wall_s=wall, cpu_s=cpu)


def digest(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@dataclass
class Round:
    """Per-call times of one round, and the reference jobs' CPU times."""

    wall: list[float]
    cpu: list[float]
    reference: list[float]


class Runner:
    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.calls = workload.calls
        self.attempted = 0
        self.failed = 0
        self.reference: list[dict] | None = None
        self.mismatch: list[str] = []

    def round(self, tracer=None) -> Round:
        """Run every call once, each between two reference jobs."""
        walls, cpus, references = [], [], [reference_job()]
        for call in self.calls:
            if tracer is not None:
                tracer.open("cli.main")
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = self.cli.main(call.argv)
            except Exception:
                traceback.print_exc()
                code = -1
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            if tracer is not None:
                tracer.close()
            references.append(reference_job())
            self.attempted += 1
            if code != 0:
                self.failed += 1
                print(f"swarmcov {' '.join(call.argv)} exited {code}", file=sys.stderr)
        digests = [digest(c.out) if os.path.isdir(c.out) else {} for c in self.calls]
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            self.mismatch.append("a round wrote artifacts that differ from the first round's")
        return Round(walls, cpus, references)

    def rounds(self, seconds: float, tracer=None) -> list[Round]:
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.round = len(out)
            out.append(self.round(tracer))
        return out

    def check(self) -> list[str]:
        problems = list(self.mismatch)
        for call in self.calls:
            try:
                call.check(call.out)
            except (CheckError, OSError, ValueError, KeyError) as exc:
                problems.append(f"{call.out}: {exc}")
        return problems


def rate(rounds, calls, attr) -> float:
    """Median over rounds of the work per wall second of the calls doing it."""
    work = sum(getattr(c, attr) for c in calls)
    return statistics.median(
        work / sum(t for t, c in zip(r.wall, calls) if getattr(c, attr)) for r in rounds
    )


def round_median(rounds: list[Round], which: str) -> float:
    """Median over rounds of the round's total ``wall`` or ``cpu`` time."""
    return statistics.median(sum(getattr(r, which)) for r in rounds)


def throughputs(rounds, calls) -> dict[str, tuple[float, str]]:
    out = {}
    for name, attr, unit in (
        ("agent_steps_per_s", "agent_steps", "agent-steps/s"),
        ("inverse_solves_per_s", "solves", "solves/s"),
        ("ctmc_jumps_per_s", "jumps", "jumps/s"),
    ):
        value = rate(rounds, calls, attr) if any(getattr(c, attr) for c in calls) else 0.0
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="swarmcov CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "swarmcov", "cli.py")):
        print(f"benchmark: no swarmcov source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import swarmcov.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported swarmcov from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{int(time.time())}"
    work = os.path.join(ROOT, ".perfbench", "work", run_id)
    os.makedirs(work)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        probe_references, probes = [reference_job()], []
        for _ in range(SETUP_PROBES):
            probes.append(setup_probe(*workload.first_config))
            probe_references.append(reference_job())
        runner = Runner(cli, workload)
        if not args.trace:
            rounds = runner.rounds(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reference = statistics.median(
                probe_references + [t for r in rounds for t in r.reference]
            )
            metrics = {
                "scaled_cpu_s": (round_median(rounds, "cpu") * REFERENCE_S / reference, "s"),
                "setup_s": (
                    statistics.median(p["cpu_s"] for p in probes) * REFERENCE_S / reference, "s"
                ),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            untraced = runner.rounds(args.seconds / 2)
            tracer = spans.Tracer(run_id)
            tracer.install()
            try:
                traced = runner.rounds(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            per_round = [
                spans.layer_metrics(
                    [s for s in tracer.spans if s[6] == r], tracer.counts[r]
                )
                for r in range(len(traced))
            ]
            values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
            values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
            values["config.load_s"] = statistics.median(p["load_s"] for p in probes)
            values["setup.wall_s"] = statistics.median(p["wall_s"] for p in probes)
            values["setup.cpu_s"] = statistics.median(p["cpu_s"] for p in probes)
            values["wall_s"] = round_median(untraced, "wall")
            values["cpu_s"] = round_median(untraced, "cpu")
            values["reference_s"] = statistics.median(
                probe_references + [t for r in untraced for t in r.reference]
            )
            values["trace.overhead_s"] = round_median(traced, "wall") - values["wall_s"]
            metrics = {k: (values[k], unit) for k, unit in spans.PER_LAYER.items()}
            metrics.update(throughputs(untraced, workload.calls))
            absent = spans.absent_metrics(tracer.absent)
            if absent:
                print("absent (hook missing, reported as 0): " + ", ".join(absent))
            tracer.write(
                os.path.join(ROOT, ".perfbench", "traces", run_id + ".jsonl"),
                [{"name": "setup.probe", **p} for p in probes]
                + [{"name": "absent", "metrics": absent}],
            )
        problems = runner.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
