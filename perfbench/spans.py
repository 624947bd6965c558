"""Spans recorded around the calls into each swarmcov module.

Tracing patches module and class attributes of an imported swarmcov from the
outside: nothing under ``src/`` knows about it.  Each patched call records a
span (name, start, end, parent, thread, round) and, where the layer has one,
a work count.  ``layer_metrics`` turns the spans of one round into the
per-layer metrics listed in ``PER_LAYER``.

A hook whose target no longer exists (say, after a refactor removes the
thread pool) is skipped and the metrics that need it are reported as absent;
the run goes on.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# name -> unit, in the order they are reported
PER_LAYER = {
    "fields.eval_s": "s",
    "fields.eval_points": "count",
    "fields.law_s": "s",
    "grids.contains_s": "s",
    "sde.rng_s": "s",
    "sde.pool_wait_s": "s",
    "sde.self_s": "s",
    "sde.steps": "count",
    "sde.agent_steps": "count",
    "sde.histogram_s": "s",
    "sde_kernels.step_s": "s",
    "sde_kernels.calls": "count",
    "sde_kernels.bytes_computed": "B",
    "pde.solve_s": "s",
    "pde.march_s": "s",
    "pde.march_calls": "count",
    "pde.cell_steps": "count",
    "pde.record_s": "s",
    "estimation.assembly_s": "s",
    "estimation.solve_s": "s",
    "estimation.iterations": "count",
    "estimation.objective_evals": "count",
    "estimation.accept_ratio": "ratio",
    "estimation.run_protocol_s": "s",
    "estimation.observe_s": "s",
    "graphs.sample_s": "s",
    "graphs.jumps": "count",
    "graphs.propagate_s": "s",
    "graphs.occupation_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_bytes": "B",
    "setup.import_s": "s",
    "config.load_s": "s",
    "setup.wall_s": "s",
    "setup.cpu_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "reference_s": "s",
    "trace.overhead_s": "s",
}

# per-layer metric -> the hooks it is computed from
NEEDS = {
    "fields.eval_s": ["fields.eval"],
    "fields.eval_points": ["fields.eval"],
    "fields.law_s": ["fields.law"],
    "grids.contains_s": ["grids.contains"],
    "sde.rng_s": ["sde.rng"],
    "sde.pool_wait_s": ["sde.pool", "sde_kernels.step"],
    "sde.self_s": ["sde.simulate"],
    "sde.steps": ["sde.rng"],
    "sde.agent_steps": ["sde_kernels.step"],
    "sde.histogram_s": ["sde.histogram"],
    "sde_kernels.step_s": ["sde_kernels.step"],
    "sde_kernels.calls": ["sde_kernels.step"],
    "sde_kernels.bytes_computed": ["sde_kernels.step"],
    "pde.solve_s": ["pde.solve"],
    "pde.march_s": ["pde.march"],
    "pde.march_calls": ["pde.march"],
    "pde.cell_steps": ["pde.march"],
    "pde.record_s": ["pde.solve", "pde.march"],
    "estimation.assembly_s": ["estimation.assembly"],
    "estimation.solve_s": ["estimation.solve"],
    "estimation.iterations": ["estimation.solve"],
    "estimation.objective_evals": ["estimation.value"],
    "estimation.accept_ratio": ["estimation.solve", "estimation.value"],
    "estimation.run_protocol_s": ["estimation.run_protocol"],
    "estimation.observe_s": ["estimation.observe"],
    "graphs.sample_s": ["graphs.sample"],
    "graphs.jumps": ["graphs.sample"],
    "graphs.propagate_s": ["graphs.propagate"],
    "graphs.occupation_s": ["graphs.occupation"],
    "cli.csv_write_s": ["cli.csv_write"],
    "cli.csv_bytes": ["cli.csv_write"],
}

# the sde module's stream tag for draws made before stepping starts
_INIT_TAG = 2**63


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.round = -1
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, round)
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_top = None
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> None:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif threading.current_thread() is not self._main:
            # pool threads work for whatever the main thread has open
            parent = self._main_top
        else:
            parent = None
        sid = next(self._ids)
        stack.append((sid, name, time.perf_counter(), parent))
        if threading.current_thread() is self._main:
            self._main_top = sid

    def close(self) -> None:
        end = time.perf_counter()
        stack = self._stack()
        sid, name, start, parent = stack.pop()
        self.spans.append(
            (sid, name, start, end, parent, threading.get_ident(), self.round)
        )
        if threading.current_thread() is self._main:
            self._main_top = stack[-1][0] if stack else None

    def count(self, key: str, value: float) -> None:
        self.counts[self.round][key] += value

    def wrap(self, fn, name: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, hook: str, on_result=None) -> None:
        """Wrap module.attr, and every other swarmcov module's binding of the
        same object under the same name (``from .sde import simulate``)."""
        original = None if module is None else module.__dict__.get(attr)
        if original is None:
            self.absent.add(hook)
            return
        traced = self.wrap(original, hook, on_result)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "swarmcov" or name.startswith("swarmcov.")) and (
                mod.__dict__.get(attr) is original
            ):
                self._set(mod, attr, traced)

    def patch_method(self, cls, attr: str, hook: str, on_result=None) -> None:
        original = None if cls is None else cls.__dict__.get(attr)
        if original is None:
            self.absent.add(hook)
            return
        if isinstance(original, functools.cached_property):
            traced = functools.cached_property(self.wrap(original.func, hook, on_result))
            traced.__set_name__(cls, attr)
        else:
            traced = self.wrap(original, hook, on_result)
        self._set(cls, attr, traced)

    def install(self) -> None:
        """Patch the swarmcov modules imported so far."""
        fields, grids, sde, sde_kernels, pde, pde_kernels, estimation, graphs, cli = (
            sys.modules.get("swarmcov." + name)
            for name in ("fields", "grids", "sde", "_sde_kernels", "pde", "_pde_kernels",
                         "estimation", "graphs", "cli")
        )

        def points(tr, args, kwargs, result):
            tr.count("fields.eval_points", np.size(result))

        self.patch_method(getattr(fields, "ScalarField", None), "eval", "fields.eval", points)
        laws = getattr(fields, "ControlLaws", None)
        for attr in ("D_at", "a_at", "H_at"):
            self.patch_method(laws, attr, "fields.law")
        self.patch_method(getattr(grids, "Domain", None), "contains", "grids.contains")

        self.patch_function(sde, "simulate", "sde.simulate")
        self.patch_function(sde, "_run_chunks", "sde.pool")
        self.patch_function(sde, "histogram", "sde.histogram")
        self._patch_stream(sde)

        def kernel(tr, args, kwargs, result):
            tr.count("sde_kernels.calls", 1)
            tr.count("sde.agent_steps", args[0].shape[0])
            tr.count("sde_kernels.bytes_computed", _nbytes(args) + _nbytes([result]))

        for attr in ("step_active", "step_switching"):
            self.patch_function(sde_kernels, attr, "sde_kernels.step", kernel)

        def march(tr, args, kwargs, result):
            tr.count("pde.march_calls", 1)
            tr.count("pde.cell_steps", np.size(args[0]) * int(args[-1]))

        self.patch_function(pde, "solve", "pde.solve")
        for attr in ("march_diffusion_1d", "march_diffusion_2d", "march_adr_1d", "march_adr_2d"):
            self.patch_function(pde_kernels, attr, "pde.march", march)

        def solved(tr, args, kwargs, result):
            tr.count("estimation.iterations", len(result.objective_history) - 1)

        def evaluated(tr, args, kwargs, result):
            tr.count("estimation.objective_evals", 1)

        plan = getattr(estimation, "_Plan", None)
        self.patch_method(plan, "forward_map", "estimation.assembly")
        self.patch_method(plan, "value", "estimation.value", evaluated)
        self.patch_function(estimation, "solve_inverse", "estimation.solve", solved)
        self.patch_function(estimation, "run_protocol", "estimation.run_protocol")
        self.patch_function(estimation, "observe", "estimation.observe")

        def jumps(tr, args, kwargs, result):
            tr.count("graphs.jumps", result.n_jumps)

        self.patch_function(graphs, "sample_ctmc", "graphs.sample", jumps)
        self.patch_function(graphs, "propagate", "graphs.propagate")
        self.patch_function(graphs, "occupation", "graphs.occupation")

        # CSV writers the CLI calls, with the position of their path argument
        writers = [
            (cli, "_write_rows", 0),
            (sde, "histogram_series_to_csv", 1),
            (graphs, "trajectory_to_csv", 1),
            (estimation, "save_observations_csv", 0),
            (estimation, "save_estimate_csv", 0),
            (fields, "save_field_csv", 1),
        ]
        for module, attr, pos in writers:
            def written(tr, args, kwargs, result, pos=pos):
                tr.count("cli.csv_bytes", _file_size(args[pos]))

            self.patch_function(module, attr, "cli.csv_write", written)

    def _patch_stream(self, sde) -> None:
        """Time stream set-up and the draws made from each stream; count the
        steps (one stream per step)."""
        original = None if sde is None else sde.__dict__.get("_stream")
        if original is None:
            self.absent.add("sde.rng")
            return
        tracer = self

        class TimedStream:
            def __init__(self, rng):
                self._rng = rng
                self.standard_normal = tracer.wrap(rng.standard_normal, "sde.rng")
                self.random = tracer.wrap(rng.random, "sde.rng")

            def __getattr__(self, attr):
                return getattr(self._rng, attr)

        stream = self.wrap(original, "sde.rng")

        @functools.wraps(original)
        def timed_stream(seed, tag):
            if int(tag) != _INIT_TAG:
                tracer.count("sde.steps", 1)
            return TimedStream(stream(seed, tag))

        self._set(sde, "_stream", timed_stream)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def write(self, path: str, extra: list[dict]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread, rnd in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "round": rnd, "id": sid, "name": name,
                    "start": start, "end": end, "parent": parent, "thread": thread,
                }) + "\n")
            for row in extra:
                fh.write(json.dumps(dict(row, run=self.run_id)) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _clip(spans, lo, hi):
    return [(max(s[2], lo), min(s[3], hi)) for s in spans if s[3] > lo and s[2] < hi]


def layer_metrics(spans: list[tuple], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one round from its spans and counts.

    A name's time is the sum of its outermost spans (a span nested in one of
    the same name is not counted twice).  Self time is a span's duration minus
    the union of its child spans.
    """
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] is not None:
            children[s[4]].append(s)

    def outermost(name):
        out = []
        for s in by_name[name]:
            p = s[4]
            while p is not None and by_id.get(p, (None, None))[1] != name:
                p = by_id[p][4] if p in by_id else None
            if p is None:
                out.append(s)
        return out

    def total(name):
        return sum(s[3] - s[2] for s in outermost(name))

    def self_time(name):
        return sum(
            (s[3] - s[2]) - _covered(_clip(children[s[0]], s[2], s[3]))
            for s in outermost(name)
        )

    evals = counts.get("estimation.objective_evals", 0.0)
    return {
        "fields.eval_s": total("fields.eval"),
        "fields.eval_points": counts.get("fields.eval_points", 0.0),
        "fields.law_s": total("fields.law"),
        "grids.contains_s": total("grids.contains"),
        "sde.rng_s": total("sde.rng"),
        # kernel spans, from any thread, are the dispatcher's only children
        "sde.pool_wait_s": self_time("sde.pool"),
        "sde.self_s": self_time("sde.simulate"),
        "sde.steps": counts.get("sde.steps", 0.0),
        "sde.agent_steps": counts.get("sde.agent_steps", 0.0),
        "sde.histogram_s": total("sde.histogram"),
        "sde_kernels.step_s": total("sde_kernels.step"),
        "sde_kernels.calls": counts.get("sde_kernels.calls", 0.0),
        "sde_kernels.bytes_computed": counts.get("sde_kernels.bytes_computed", 0.0),
        "pde.solve_s": total("pde.solve"),
        "pde.march_s": total("pde.march"),
        "pde.march_calls": counts.get("pde.march_calls", 0.0),
        "pde.cell_steps": counts.get("pde.cell_steps", 0.0),
        "pde.record_s": self_time("pde.solve"),
        "estimation.assembly_s": total("estimation.assembly"),
        "estimation.solve_s": total("estimation.solve"),
        "estimation.iterations": counts.get("estimation.iterations", 0.0),
        "estimation.objective_evals": evals,
        "estimation.accept_ratio": (
            counts.get("estimation.iterations", 0.0) / evals if evals else 0.0
        ),
        "estimation.run_protocol_s": total("estimation.run_protocol"),
        "estimation.observe_s": total("estimation.observe"),
        "graphs.sample_s": total("graphs.sample"),
        "graphs.jumps": counts.get("graphs.jumps", 0.0),
        "graphs.propagate_s": total("graphs.propagate"),
        "graphs.occupation_s": total("graphs.occupation"),
        "cli.csv_write_s": total("cli.csv_write"),
        "cli.csv_bytes": counts.get("cli.csv_bytes", 0.0),
    }


def absent_metrics(absent_hooks: set[str]) -> list[str]:
    return [m for m, hooks in NEEDS.items() if any(h in absent_hooks for h in hooks)]
