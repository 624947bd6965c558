"""The workloads: their inputs, made from the seed, and their CLI calls.

Sizes are chosen so that each part's calls take 1-1.5 s of CPU time on
2 cores at full speed, which lets a run repeat a round (every call of the
workload once) many times; each part keeps the regime named in its
docstring.  Every input is written here, into
the run's work directory, so a seed gives the same inputs at every commit.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

D = 0.005  # dispersion diffusivity of the estimation protocol
T1, T2, N_OBS = 2.0, 52.0, 25


@dataclass
class Call:
    """One ``swarmcov`` invocation and how to check what it wrote."""

    argv: list[str]
    out: str
    check: Callable[[str], None]
    agent_steps: int = 0
    solves: int = 0
    jumps: int = 0


@dataclass
class Workload:
    calls: list[Call]
    first_config: tuple[str, str]  # (path, subcommand) parsed by the set-up probe


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _call(work: str, sub: str, label: str, config: str, check, **work_done) -> Call:
    out = os.path.join(work, "out", label)
    argv = [sub, "--config", config, "--out", out]
    return Call(argv, out, check, **work_done)


# ---------------------------------------------------------------------------


def coverage(seed: int, work: str) -> Workload:
    """2D coverage law at 1e5 agents over 20 steps, on the two-bump formula
    (case1) and on a CSV grid field (case2): per-agent work dominates (field
    evaluation, interpolation, kernel, RNG)."""
    rng = np.random.default_rng([seed, 1])
    agents, dt, t_end = 100_000, 2e5, 4e6
    steps = round(t_end / dt)

    nodes = np.linspace(0.0, 1.0, 33)
    gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
    values = np.full(gx.shape, 0.01)
    for _ in range(3):
        cx, cy = rng.uniform(0.2, 0.8, 2)
        values += rng.uniform(0.5, 1.0) * np.exp(
            -((gx - cx) ** 2 + (gy - cy) ** 2) / (2 * rng.uniform(0.08, 0.2) ** 2)
        )
    rows = [f"{x:.17g},{y:.17g},{v:.17g}" for x, y, v in zip(gx.ravel(), gy.ravel(), values.ravel())]
    csv = _write(os.path.join(work, "case2_field.csv"), "x,y,value\n" + "\n".join(rows) + "\n")
    fields = {
        "case1": ("kind = two_bump", checks.two_bump),
        "case2": (
            f"kind = csv\npath = {os.path.basename(csv)}",
            functools.partial(checks.bilinear, nodes, nodes, values),
        ),
    }
    calls = []
    for label, (field_spec, formula) in fields.items():
        # The initial law is case1's; its centre is not drawn from the seed,
        # because a step's cost depends on where the agents are.
        config = _write(os.path.join(work, f"{label}.cfg"), f"""\
[field]
{field_spec}
dim = 2

[law]
family = diffusion
c1 = 1e-5

[simulation]
agents = {agents}
dt = {dt!r}
t_end = {t_end!r}
seed = {int(rng.integers(2**31))}
snapshots = 0, 2e6, 4e6
init = gaussian:0.5,0.5,0.1
workers = 2

[output]
bins = 20
""")
        check = functools.partial(checks.check_coverage, n_agents=agents, field=formula)
        calls.append(_call(work, "coverage", label, config, check, agent_steps=agents * steps))
    return Workload(calls, (calls[0].argv[2], "coverage"))


# ---------------------------------------------------------------------------


# Relative L2 error bound for the estimate at dt_coverage = 2e-3: the
# noise-free minimizer sits at 0.2035, and 1e4 agents add a seed-to-seed
# spread of a few hundredths.
EST_ERR_BOUND = 0.3


def estimate(seed: int, work: str) -> Workload:
    """The est_sin protocol end to end at 1e4 agents with workers = 2 and
    dt_coverage = 2e-3 (1000 coverage steps): per-step overhead dominates."""
    dt, agents = 2e-3, 10_000
    config = _write(os.path.join(work, "est_sin.cfg"), f"""\
[field]
kind = sine
dim = 1

[protocol]
c1 = 0.5
d = {D!r}
t1 = {T1!r}
t2 = {T2!r}
agents = {agents}
dt_coverage = {dt!r}
n_obs = {N_OBS}
seed = {seed}
workers = 2

[window]
lo = 0.7
hi = 1.0
divisor = 100

[inverse]
lam = 0.1
basis = 10
cells = 100
max_iters = 2000
""")
    check = functools.partial(
        checks.check_estimate, T1=T1, T2=T2, d=D, truth=checks.sine, err_bound=EST_ERR_BOUND
    )
    steps = round(T1 / dt) + N_OBS
    call = _call(work, "estimate", "est_sin", config, check, agent_steps=agents * steps, solves=1)
    return Workload([call], (config, "estimate"))


# ---------------------------------------------------------------------------


def inverse(seed: int, work: str) -> Workload:
    """``swarmcov estimate`` in [observations] mode on four observation sets:
    the sine and quadratic fields on the fine (divisor 100) and coarse
    (divisor 10) partitions of (0.7, 1), each the exact window masses of the
    field's nodal values with binomial counting noise at 1e4 agents.  The
    assembly of the forward map and the solver dominate; no SDE runs."""
    rng = np.random.default_rng([seed, 3])
    times = T1 + (T2 - T1) / N_OBS * np.arange(1, N_OBS + 1)
    nodes = np.linspace(0.0, 1.0, 10)
    calls = []
    for name, formula in (("sine", checks.sine), ("quadratic", checks.quadratic)):
        for divisor in (100, 10):
            cells = checks.window_cells(0.7, 1.0, divisor)
            model = checks.HeatModel(times, T1, T2, D, cells)
            coeffs = formula(nodes)
            coeffs = coeffs / (model.B @ coeffs).sum() / model.h
            masses = np.clip(model.A @ coeffs, 0.0, 1.0)
            fractions = rng.binomial(10_000, masses) / 10_000
            label = f"{name}_{divisor}"
            lines = ["t,cell_lo,cell_hi,fraction"]
            for k, t in enumerate(times):
                for w, (lo, hi) in enumerate(cells):
                    lines.append(f"{t:.17g},{lo:.17g},{hi:.17g},{fractions[k * len(cells) + w]:.17g}")
            obs = _write(os.path.join(work, f"{label}_obs.csv"), "\n".join(lines) + "\n")
            config = _write(os.path.join(work, f"{label}.cfg"), f"""\
[observations]
path = {os.path.basename(obs)}
d = {D!r}
t1 = {T1!r}
t2 = {T2!r}

[inverse]
lam = 0.1
basis = 10
cells = 100
max_iters = 2000
""")
            check = functools.partial(checks.check_estimate, T1=T1, T2=T2, d=D)
            calls.append(_call(work, "estimate", label, config, check, solves=1))
    return Workload(calls, (calls[0].argv[2], "estimate"))


# ---------------------------------------------------------------------------


GRAPH_TV_BOUND = 0.05


def meanfield(seed: int, work: str) -> Workload:
    """``swarmcov pde`` on pde_decay and pde_longrun (coarser grids, same
    laws and horizons), ``swarmcov graph`` on graph.cfg and on a random
    connected graph of 50 vertices with 3e5 jumps: the finite-volume march
    and the Gillespie sampler dominate."""
    rng = np.random.default_rng([seed, 4])
    amplitude = rng.uniform(0.3, 0.7)
    decay = _write(os.path.join(work, "pde_decay.cfg"), f"""\
[law]
family = constant
d0 = 1.0

[solver]
cells = 100
t_end = 2.0
snapshots = 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.0

[initial]
kind = cosine
amplitude = {float(amplitude)!r}
""")
    longrun = _write(os.path.join(work, "pde_longrun.cfg"), f"""\
[field]
kind = sine
dim = 1

[law]
family = diffusion
c1 = 0.5

[solver]
cells = 50
t_end = 4.0
snapshots = 0.2, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2, 3.6, 4.0

[initial]
kind = gaussian
center = {float(rng.uniform(0.2, 0.8))!r}
sigma = 0.02
""")
    calls = [
        _call(work, "pde", "pde_decay", decay, functools.partial(checks.check_pde_decay, d0=1.0)),
        _call(work, "pde", "pde_longrun", longrun, functools.partial(checks.check_pde_longrun, field=checks.sine)),
    ]

    # graph.cfg as bundled, with the sampler seed taken from the run's seed
    path_jumps = 100_000
    graph = _write(os.path.join(work, "graph.cfg"), f"""\
[graph]
kind = path
n = 2

[rates]
c = 1.0
values = 1.0, 2.0

[propagate]
p0 = uniform
times = 0.25, 0.5, 1.0, 2.0, 4.0

[sample]
start = 0
seed = {int(rng.integers(2**31))}
max_jumps = {path_jumps}
""")
    check = functools.partial(
        checks.check_graph, n=2, edges=[(0, 1)], f=[1.0, 2.0], c=1.0, exponent=1,
        p0=np.array([0.5, 0.5]), times=[0.25, 0.5, 1.0, 2.0, 4.0],
        max_jumps=path_jumps, tv_bound=GRAPH_TV_BOUND,
    )
    calls.append(_call(work, "graph", "graph_path", graph, check, jumps=path_jumps))

    n, extra, jumps = 50, 50, 300_000
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(int(a) for a in rng.integers(0, n, 2))
        if u != v:
            edges.add((u, v))
    edges = sorted(edges)
    _write(os.path.join(work, "random.edges"), "".join(f"{u} {v}\n" for u, v in edges))
    f = rng.uniform(0.5, 2.0, n)
    times = [0.1, 0.5, 1.0, 2.0]
    random_cfg = _write(os.path.join(work, "graph_random.cfg"), f"""\
[graph]
kind = edgelist
path = random.edges

[rates]
c = 1.0
exponent = -1
values = {", ".join(repr(float(v)) for v in f)}

[propagate]
p0 = vertex:0
times = {", ".join(repr(t) for t in times)}

[sample]
start = 0
seed = {int(rng.integers(2**31))}
max_jumps = {jumps}
""")
    p0 = np.zeros(n)
    p0[0] = 1.0
    check = functools.partial(
        checks.check_graph, n=n, edges=edges, f=f, c=1.0, exponent=-1, p0=p0,
        times=times, max_jumps=jumps, tv_bound=GRAPH_TV_BOUND,
    )
    calls.append(_call(work, "graph", "graph_random", random_cfg, check, jumps=jumps))
    return Workload(calls, (decay, "pde"))


# ---------------------------------------------------------------------------

# Two workloads of two parts each, so that a run can be long: this shared VM's
# speed drifts over minutes, and a run's medians steady only over tens of
# seconds of rounds.  Every layer runs on one of them, and each optimisation
# of a layer has a workload that bypasses that layer.


def agents(seed: int, work: str) -> Workload:
    """coverage and estimate: agent simulation (SDE, fields, RNG, pool)."""
    first, second = coverage(seed, work), estimate(seed, work)
    return Workload(first.calls + second.calls, first.first_config)


def solvers(seed: int, work: str) -> Workload:
    """inverse and meanfield: inverse solve, FV march and CTMC; no SDE."""
    first, second = inverse(seed, work), meanfield(seed, work)
    return Workload(first.calls + second.calls, first.first_config)


WORKLOADS = {"agents": agents, "solvers": solvers}
