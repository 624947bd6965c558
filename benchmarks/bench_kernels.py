#!/usr/bin/env python3
"""Time the hot kernels: vectorized numpy, one call over the whole swarm.

Results are medians over repeats, after one warm-up call.  The agent-step
rows run at the sizes the CLI steps: 1e5 agents in 2D (coverage) and 1e4 in
1D (the estimation protocol), both with zero drift as the diffusion coverage
law has.  The 2D step and the domain check run twice on one swarm: as a
C-ordered (n, 2) array and column-major, the layout sde.simulate keeps; the
two must agree bit for bit.  The interp2 row interpolates a 33x33 node grid
(the benchmark's CSV field size) at 1e5 points and must match, bit for bit,
the per-corner formula it replaced, kept here as the reference.  The
two-bump gradient row takes the field's gradient at 1e5 column-major points,
beside the masked gather/scatter bump formula it replaced, kept here as the
reference; the two must agree bit for bit.
The FV march rows step pure diffusion with the one finite-volume march,
_pde_kernels.march: 1D on --cells cells and 2D on a square of about as many.
The inverse-solve rows run at the est_sin settings (25 observation times
over 50 time units, d = 0.005, 100 cells, 10 hats, the 30-cell fine window
partition): the spectral forward map, the whole solve, the NNLS
stage alone on the system the solve assembles, and the per-column
finite-volume marches the map replaces, which the map must match to 1e-11
relative.
The 1D pure-diffusion rows solve at the solvers benchmark's pde_longrun size
(50 cells, sine coverage law with c1 = 0.5, Gaussian start, t_end = 4, 11
snapshots): in closed form, as pde.solve does, and marched from snapshot to
snapshot, which the closed form must match to 1e-10 relative.
The graph rows sample a jump chain at the size the solvers benchmark's random
graph runs (50 vertices, 99 edges, exponent -1, 3e5 jumps) with sample_ctmc,
which walks the chain from a choice table, and with the per-jump walk it
replaced, kept here as the reference; the two must return the same times and
vertices, bit for bit.  Two more sampling rows do the same on 300 vertices:
a random graph of degrees 1..9, under the bound on the per-vertex step table
(_STEP_SLOTS) with vertex ids past a byte, and a graph whose degrees are
1..299 (a wide degree range), past it, where sample_ctmc walks per jump.
They also write the chain as CSV, propagate the master equation to 5 times,
which must match scipy.linalg.expm of the generator to 1e-10 relative.  The
chain set-up rows build the walk's chain (graphs._chain) on each side of the
bound: the two graphs above, the 50-vertex graph and stars of 400 and 10,000
leaves; each prints which walk it takes, the bound on its table's slots and
tracemalloc's peak over the set-up.  The binning rows put 8192 uniforms
in the bins of the choice table's cuts, at the 50-vertex graph's and at the
star of 400 leaves', by slots (_slot_bins, which the sampler uses) and by
np.searchsorted, kept here as the reference; the bins must be the same.
The reader row reads a 750-row observation table (25 times, 30 cells) with
read_csv, which parses it with np.loadtxt, and with np.genfromtxt, the
reader it replaced, kept here as the reference; the two must read the same
names and bits.
The simulate rows run whole sde.simulate calls at the agents benchmark's
sizes, with zero drift as there: the two-bump and a 33x33 CSV grid field with
1e5 agents, 20 steps and a Gaussian start, and the sine field with 1e4
agents, 200 steps and a uniform start.  Two more rows step 1e5 agents on the
two-bump field for 20 steps of dt = 1e-3, with the drift law (c1 = 0.05,
c2 = 0.1) and with the reaction law (c1 = 0.05, c2 = 100, k = 50).  Each
prints ms per step, minor page faults per step (getrusage's ru_minflt over
the timed calls; glibc returns freed heap to the system once its free top
exceeds a threshold, so a step whose temporaries pass it faults them in
again) and tracemalloc's peak over one call, beside the same run with the
stepping it replaced, kept here as the reference: a Generator built per
step, a noise array and its column-major copy per step, the laws evaluated
on the whole swarm (for the diffusion law, its allocating c1/sqrt(F) + c2
and, with drift, c2*D*grad(F)/F from a second evaluation of the field), the
allocating step and reflection, and the stop/go switch applied by masks.
The final positions and modes must match the reference's bit for bit.
The CLI rows print tracemalloc's peak over whole coverage and estimate calls
shaped like the agents benchmark's (1e5 agents on the two-bump and a CSV grid
field with three snapshots; the est_sin protocol at 1e4 agents), and over a
graph call shaped like the solvers benchmark's random graph (50 vertices, 99
edges, exponent -1, 3e5 jumps), which streams its path into its CSV and its
occupation.  Beside it runs the sampling half of the same call on the whole
path, kept here as the reference: sample_ctmc, one weighted bincount over the
path, and one CSV write.  Its trajectory, occupation and summary rows must be
the reference's, byte for byte.
The CSV rows write the 3e5-jump trajectory, three 2D snapshots of 1e5
agents, the coverage runs' swarm size, and a 100-row table of three floats,
the size of a bundled run's estimate.csv, with write_csv, which formats the
cells in numpy, and with the chunked % writer it replaced, kept here as the
reference; the two must write the same bytes.

Usage: python3 benchmarks/bench_kernels.py [--agents N] [--cells N] [--steps N]
       [--repeats N]
"""

from __future__ import annotations

import argparse
import os
import resource
import tempfile
import time
import tracemalloc

# before numpy loads OpenBLAS: its idle threads would spin through every BLAS
# call (propagate's eigh) on a machine with few cores
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
from scipy.linalg import expm
from scipy.optimize import nnls

from swarmcov import _field_kernels as fk
from swarmcov import _pde_kernels as pk
from swarmcov import _sde_kernels as sk
from swarmcov._csv import read_csv, write_csv
from swarmcov import estimation as est
from swarmcov import cli
from swarmcov import graphs as gr
from swarmcov import (
    GaussianInit,
    GridField,
    SimConfig,
    SwarmState,
    UniformInit,
    diffusion_coverage_law,
    pde,
    reaction_coverage_law,
    save_field_csv,
    sde,
    simulate,
    sine_field,
    snapshots_to_csv,
    two_bump_field,
)
from swarmcov.grids import Domain, Grid, GridFunction


def median_time(fn, repeats: int) -> float:
    fn()  # warm-up (cache touch)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def percent_write_csv(path, header, row_format, *columns):
    """The chunked writer write_csv replaced: 8192 rows per % operation."""
    columns = [np.asarray(c) for c in columns]
    width, n_rows = len(columns), len(columns[0])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, 8192):
            hi = min(lo + 8192, n_rows)
            cells = [None] * (width * (hi - lo))
            for j, col in enumerate(columns):
                cells[j::width] = col[lo:hi].tolist()
            fh.write(((row_format + "\n") * (hi - lo)) % tuple(cells))


def per_jump_sample_ctmc(g, f, c, start, t_end, seed, exponent=1, max_jumps=None):
    """The sampler sample_ctmc replaced: the neighbor index int(u * deg) per jump."""
    if g.n_vertices == 1:
        return gr.Trajectory(np.array([0.0]), np.array([start], dtype=np.int64))
    nbrs = [a.tolist() for a in g.neighbor_lists()]
    degs = [len(a) for a in nbrs]
    rates = c * np.asarray(f, dtype=float) ** float(exponent) * g.degrees.astype(float)
    rng = np.random.default_rng(seed)
    times = [np.array([0.0])]
    verts = [np.array([start], dtype=np.int64)]
    v, t = start, 0.0
    remaining = np.inf if max_jumps is None else int(max_jumps)
    while remaining > 0:
        u_hold = rng.random(gr._BATCH)
        u_choice = rng.random(gr._BATCH)
        cap = gr._BATCH if remaining > gr._BATCH else int(remaining)
        path = np.empty(cap + 1, dtype=np.int64)
        path[0] = v
        for lo in range(0, cap, gr._CHAIN_SLICE):
            hi = min(lo + gr._CHAIN_SLICE, cap)
            walk = []
            step = walk.append
            for u in u_choice[lo:hi].tolist():
                deg = degs[v]
                j = int(u * deg)
                if j >= deg:
                    j = deg - 1
                v = nbrs[v][j]
                step(v)
            path[lo + 1 : hi + 1] = walk
        jump_t = np.empty(cap + 1)
        jump_t[0] = t
        jump_t[1:] = -np.log(u_hold[:cap]) / rates[path[:cap]]
        np.cumsum(jump_t, out=jump_t)
        past = np.flatnonzero(jump_t[1:] > t_end)
        count = int(past[0]) if past.size else cap
        times.append(jump_t[1 : count + 1])
        verts.append(path[1 : count + 1])
        if past.size:
            break
        t = jump_t[cap]
        remaining -= cap
    return gr.Trajectory(np.concatenate(times), np.concatenate(verts))


def reference_step_active(pos, D, dt, noise, lo, hi, drift=None):
    """The allocating step simulate used before it stepped into a buffer."""
    term = (D * np.sqrt(2.0 * dt))[:, None] * noise
    term += pos if drift is None else pos + drift * dt
    return reference_reflect(term, lo, hi)


def reference_reflect(x, lo, hi):
    r = np.asarray(x, dtype=float) - lo
    span = hi - lo
    for j in range(r.shape[1]):
        c = r[:, j]
        s = span[j]
        out = (c < 0.0) | (c > s)
        if out.any():
            m = np.mod(c[out], 2.0 * s)
            c[out] = np.where(m > s, 2.0 * s - m, m)
    r += lo
    return r


def two_closure_motion(field, c1, c2):
    """The diffusion law's D and drift as it computed them before one motion
    call gave both: allocating, c1/sqrt(F) + c2 and, with c2 > 0,
    c2*D*grad(F)/F from a second evaluation of the field."""

    def motion(pts):
        D = c1 / np.sqrt(field.eval(pts)) + c2
        if not c2:
            return D, None
        return D, (c2 * D / field.eval(pts))[:, None] * field.gradient(pts)

    return motion


def bump_terms_reference(pts, a, b):
    """The masked bump formula fields._bump replaced: exp(-1/(1 - |a*x - b|^2))
    and its gradient, gathered on the points inside the support and
    scattered back."""
    z = a * pts - b
    u = np.sum(z * z, axis=1)
    inside = u < 1.0
    f = np.zeros(pts.shape[0])
    g = np.zeros_like(pts)
    if inside.any():
        ui = u[inside]
        fi = np.exp(-1.0 / (1.0 - ui))
        f[inside] = fi
        scale = -2.0 * a * fi / (1.0 - ui) ** 2
        g[inside] = scale[:, None] * z[inside]
    return f, g


def two_bump_gradient_reference(pts):
    """The two-bump field's gradient from the masked bump formula."""
    f1, g1 = bump_terms_reference(pts, 2.0, 1.0)
    f2, g2 = bump_terms_reference(pts, 6.0, 2.0)
    grad = g1 - g2
    grad[f1 - f2 <= 0.0] = 0.0
    return grad


def reference_simulate(config, laws, domain, motion=None):
    """simulate's loop as it was: a Generator per step, a noise array and its
    column-major copy per step, the laws evaluated on the whole swarm and the
    allocating step, with the stop/go switch applied by masks; returns the
    final positions and modes.  motion replaces laws.motion when given: the
    diffusion-law runs pass two_closure_motion."""
    positions = np.asfortranarray(sde._initial_positions(config, domain))
    n, d = positions.shape
    modes = np.ones(n, dtype=np.uint8)
    dt, lo, hi = config.dt, domain.lo, domain.hi
    for step in range(1, round(config.t_end / dt) + 1):
        key = np.array([np.uint64(config.seed), np.uint64(step)], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        noise = np.asfortranarray(rng.standard_normal((n, d)))
        D, drift = (motion or laws.motion)(positions)
        moved = reference_step_active(positions, D, dt, noise, lo, hi, drift)
        if not laws.switching:
            positions = moved
            continue
        unif = rng.random((n, 2))
        active = modes == 1
        stop = (unif[:, 0] < laws.H(positions) * dt) & active
        go = (unif[:, 1] < laws.k * dt) & ~active
        positions[active] = moved[active]
        modes[stop] = 0
        modes[go] = 1
    return positions, modes


def interp2_reference(xq, yq, lox, hx, loy, hy, values):
    """The per-corner bilinear formula interp2 replaced: four 2D gathers."""
    nx, ny = values.shape
    sx = np.clip((np.asarray(xq, dtype=float) - lox) / hx, 0.0, nx - 1.0)
    sy = np.clip((np.asarray(yq, dtype=float) - loy) / hy, 0.0, ny - 1.0)
    i = np.minimum(sx.astype(np.int64), nx - 2)
    j = np.minimum(sy.astype(np.int64), ny - 2)
    fx = sx - i
    fy = sy - j
    return (
        values[i, j] * (1.0 - fx) * (1.0 - fy)
        + values[i + 1, j] * fx * (1.0 - fy)
        + values[i, j + 1] * (1.0 - fx) * fy
        + values[i + 1, j + 1] * fx * fy
    )


def traced_peak_mb(fn) -> float:
    """tracemalloc's peak over one call of fn, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def simulate_rows(repeats: int) -> None:
    """Whole simulate calls at the agents benchmark's sizes, zero drift, and
    drift and reaction runs at 1e5 agents, beside the reference stepping;
    exits unless their final positions and modes agree."""
    nodes = np.linspace(0.0, 1.0, 33)
    gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
    bumps = 0.01 + sum(
        wt * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2 * s**2))
        for wt, cx, cy, s in ((0.8, 0.3, 0.6, 0.1), (0.6, 0.7, 0.4, 0.15), (0.9, 0.5, 0.5, 0.2))
    )
    gaussian = GaussianInit((0.5, 0.5), 0.1)
    two_bump, grid_field, sine = two_bump_field(), GridField((nodes, nodes), bumps), sine_field()

    def diffusion(field, c1, c2=0.0):
        # the law, and the two-closure law it replaced
        return field, diffusion_coverage_law(field, c1, c2), two_closure_motion(field, c1, c2)

    runs = [
        ("two-bump, 1e5 agents, 2D", *diffusion(two_bump, 1e-5),
         SimConfig(100_000, 2e5, 4e6, 11, (4e6,), gaussian)),
        ("33x33 CSV grid, 1e5 agents, 2D", *diffusion(grid_field, 1e-5),
         SimConfig(100_000, 2e5, 4e6, 12, (4e6,), gaussian)),
        ("sine, 1e4 agents, 1D", *diffusion(sine, 0.5),
         SimConfig(10_000, 2e-3, 0.4, 13, (0.4,), UniformInit())),
        ("drift c2 = 0.1, two-bump, 1e5 agents, 2D", *diffusion(two_bump, 0.05, 0.1),
         SimConfig(100_000, 1e-3, 0.02, 14, (0.02,), gaussian)),
        ("reaction, two-bump, 1e5 agents, 2D", two_bump,
         reaction_coverage_law(two_bump, 0.05, 100.0, 50.0), None,
         SimConfig(100_000, 1e-3, 0.02, 15, (0.02,), gaussian)),
    ]
    print(f"{'simulate':<64} {'per step':>10} {'faults/step':>12} {'traced peak':>12}")
    for label, field, laws, motion, config in runs:
        steps = round(config.t_end / config.dt)
        domain = field.domain
        finals = {}
        for name, fn in (
            ("simulate", lambda: (lambda s: (s.positions, s.modes))(
                simulate(config, laws, domain)[-1])),
            ("reference", lambda: reference_simulate(config, laws, domain, motion)),
        ):
            finals[name] = [np.ascontiguousarray(a).tobytes() for a in fn()]  # also the warm-up
            samples, faults = [], resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            print(f"{f'{name}, {label}, {steps} steps':<64} "
                  f"{np.median(samples) / steps * 1e3:>8.3f}ms {faults / (repeats * steps):>12.1f}"
                  f" {traced_peak_mb(fn):>10.2f}MB")
        if finals["simulate"] != finals["reference"]:
            raise SystemExit(f"simulate ({label}) differs from the reference stepping")
    print("simulate: final positions and modes identical to the reference stepping, bit for bit")


def cli_peaks(tmp: str) -> None:
    """tracemalloc's peak over whole CLI calls shaped like the agents
    benchmark's: coverage on the two-bump and a 33x33 CSV grid field (1e5
    agents, 20 steps, 3 snapshots, 20x20 bins) and the est_sin protocol at
    1e4 agents (1000 coverage steps, 25 observation times)."""
    nodes = np.linspace(0.0, 1.0, 33)
    gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
    save_field_csv(GridField((nodes, nodes), 1.01 + np.sin(3 * gx) * np.cos(2 * gy)),
                   os.path.join(tmp, "grid.csv"))
    coverage = """[field]
{field}
dim = 2

[law]
family = diffusion
c1 = 1e-5

[simulation]
agents = 100000
dt = 2e5
t_end = 4e6
seed = 5
snapshots = 0, 2e6, 4e6
init = gaussian:0.5,0.5,0.1

[output]
bins = 20
"""
    protocol = """[field]
kind = sine
dim = 1

[protocol]
c1 = 0.5
d = 0.005
t1 = 2.0
t2 = 52.0
agents = 10000
dt_coverage = 2e-3
n_obs = 25
seed = 5

[window]
lo = 0.7
hi = 1.0
divisor = 100

[inverse]
lam = 0.1
basis = 10
cells = 100
"""
    calls = [
        ("coverage, two-bump, 1e5 agents", "coverage",
         coverage.format(field="kind = two_bump")),
        ("coverage, 33x33 CSV grid, 1e5 agents", "coverage",
         coverage.format(field="kind = csv\npath = grid.csv")),
        ("estimate, est_sin protocol, 1e4 agents", "estimate", protocol),
    ]
    print(f"{'CLI call':<64} {'wall':>10} {'traced peak':>12}")
    for label, sub, text in calls:
        config = os.path.join(tmp, f"{sub}.cfg")
        with open(config, "w") as fh:
            fh.write(text)
        argv = [sub, "--config", config, "--out", os.path.join(tmp, "out", sub)]
        t0 = time.perf_counter()
        if cli.main(argv) != 0:
            raise SystemExit(f"{label} failed")
        wall = time.perf_counter() - t0
        print(f"{label:<64} {wall * 1e3:>8.1f}ms {traced_peak_mb(lambda: cli.main(argv)):>10.2f}MB")


def whole_path_graph(g, f, exponent, seed, max_jumps, pi, out: str) -> None:
    """The sampling half of a graph call as the CLI ran it before the stream:
    the whole path, its occupation by one weighted bincount, one CSV write."""
    traj = gr.sample_ctmc(g, f, 1.0, 0, np.inf, seed, exponent, max_jumps)
    horizon = traj.times[-1]
    durations = np.diff(np.append(np.minimum(traj.times, horizon), horizon))
    occ = np.bincount(traj.vertices, weights=durations, minlength=len(f)) / durations.sum()
    gr.trajectory_to_csv(traj, os.path.join(out, "trajectory.csv"))
    write_csv(os.path.join(out, "occupation.csv"), "vertex,occupation", "%d,%.17g",
              np.arange(len(f)), occ)
    write_csv(os.path.join(out, "sampled.csv"), "key,value", "%s,%s",
              ["tv_occupation_vs_pi", "n_jumps"],
              [f"{0.5 * float(np.abs(occ - pi).sum()):.17g}", str(traj.n_jumps)])


def graph_peaks(tmp: str) -> None:
    """tracemalloc's peak over a whole graph call shaped like the solvers
    benchmark's graph_random (50 vertices, 99 edges, exponent -1, 3e5 jumps,
    propagation to 4 times), beside the whole-path reference's; the call's
    trajectory, occupation and sampled summary rows must be the reference's."""
    g = gr.random_connected_graph(50, 50, np.random.default_rng(4))
    f = np.random.default_rng(5).uniform(0.5, 2.0, 50)
    seed, jumps = 11, 300_000
    config = os.path.join(tmp, "graph.cfg")
    with open(config, "w") as fh:
        fh.write(f"""[graph]
kind = random
n = 50
extra_edges = 50
seed = 4

[rates]
c = 1.0
exponent = -1
values = {", ".join(repr(float(v)) for v in f)}

[propagate]
p0 = vertex:0
times = 0.1, 0.5, 1.0, 2.0

[sample]
seed = {seed}
max_jumps = {jumps}
""")
    streamed, whole = os.path.join(tmp, "out", "graph"), os.path.join(tmp, "out", "whole")
    os.makedirs(whole)
    argv = ["graph", "--config", config, "--out", streamed]
    pi = gr.invariant_distribution(g, f, -1)
    label = f"graph, 50 vertices, 99 edges, {jumps:,} jumps"
    t0 = time.perf_counter()
    if cli.main(argv) != 0:
        raise SystemExit(f"{label} failed")
    wall = time.perf_counter() - t0
    print(f"{label:<64} {wall * 1e3:>8.1f}ms {traced_peak_mb(lambda: cli.main(argv)):>10.2f}MB")

    def reference():
        whole_path_graph(g, f, -1, seed, jumps, pi, whole)

    t0 = time.perf_counter()
    reference()
    wall = time.perf_counter() - t0
    print(f"{'  its sampling half, whole path (reference)':<64} {wall * 1e3:>8.1f}ms "
          f"{traced_peak_mb(reference):>10.2f}MB")
    for name in ("trajectory.csv", "occupation.csv"):
        with open(os.path.join(streamed, name), "rb") as got, \
                open(os.path.join(whole, name), "rb") as want:
            if got.read() != want.read():
                raise SystemExit(f"graph {name} differs from the whole-path reference's")
    with open(os.path.join(streamed, "summary.csv")) as got, \
            open(os.path.join(whole, "sampled.csv")) as want:
        if got.read().splitlines()[2:] != want.read().splitlines()[1:]:
            raise SystemExit("graph summary rows differ from the whole-path reference's")
    print("graph: trajectory, occupation and summary identical to the whole-path reference")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--agents", type=int, default=200_000)
    ap.add_argument("--cells", type=int, default=4096)
    ap.add_argument("--steps", type=int, default=200, help="march steps per PDE timing")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    # the simulate rows run first, before the other rows' inputs exist: the
    # allocator's history decides when freed heap goes back to the system
    simulate_rows(args.repeats)
    with tempfile.TemporaryDirectory() as tmp:
        cli_peaks(tmp)
        graph_peaks(tmp)

    rng = np.random.default_rng(0)
    n, d = args.agents, 2
    pos = rng.random((n, d))
    noise = rng.standard_normal((n, d))
    unif = rng.random((n, 2))
    modes = (rng.random(n) < 0.5).astype(np.uint8)
    D = np.full(n, 0.05)
    H = np.full(n, 0.7)
    lo = np.zeros(d)
    hi = np.ones(d)
    dt = 1e-3

    def step(n_agents, dim):
        # an active step with zero drift, on a swarm spread over the unit box
        p = rng.random((n_agents, dim))
        z = rng.standard_normal((n_agents, dim))
        Dn = np.full(n_agents, 0.05)
        lo_, hi_ = np.zeros(dim), np.ones(dim)
        return lambda: sk.step_active(p, Dn, None, dt, z, lo_, hi_)

    # one 2D swarm of 1e5 agents in both memory layouts
    swarm_c = rng.random((100_000, 2))
    noise_c = rng.standard_normal((100_000, 2))
    swarm_f, noise_f = np.asfortranarray(swarm_c), np.asfortranarray(noise_c)
    D2 = np.full(100_000, 0.05)
    square = Domain.unit_square()
    nodes = rng.random((33, 33)) + 0.5
    bumps = rng.random((100_000, 2))
    bumps_f = np.asfortranarray(bumps)
    two_bump = two_bump_field()

    nc = args.cells
    y1 = rng.random(nc) + 0.5
    w1 = rng.random(nc) + 0.5
    h = 1.0 / nc
    dt1 = 0.9 * h * h / (2.0 * 2.0 * w1.max())
    n2 = int(np.sqrt(nc))
    y2 = rng.random((n2, n2)) + 0.5
    w2 = rng.random((n2, n2)) + 0.5
    h2 = 1.0 / n2
    dt2 = 0.9 / (2.0 * 2.0 * w2.max() * 2.0 / (h2 * h2))
    # the inverse solve at est_sin settings, on random window fractions
    part = est.window_partition((0.7, 1.0), 100)
    obs_times = est.uniform_times(2.0, 52.0, 25)
    obs = est.ObservationSeries(obs_times, rng.random((25, part.n_cells)) * 0.01, 10_000, part)
    problem = est.EstimationProblem(Domain.unit_interval(), 100, 10, 0.005, 0.1, 2.0, 52.0, obs)
    # the stacked system solve_inverse hands to NNLS
    plan = est._Plan(problem)
    root_w = np.sqrt(plan.weights)
    nnls_M = np.vstack([root_w[:, None] * plan.forward_map, np.sqrt(plan.reg) * plan.basis])
    nnls_b = np.concatenate([root_w * plan.data, np.zeros(plan.basis.shape[0])])

    def switching(kernel):
        # the kernel updates pos and modes in place: step copies, return them
        def run():
            p, m = pos.copy(), modes.copy()
            kernel(p, m, D, None, H, 1.0, dt, noise, unif, lo, hi)
            return p, m

        return run

    def marched_map():
        # the forward map the spectral one replaces: each hat function marched
        # alone to every observation step, then integrated over the cells
        plan = est._Plan(problem)
        w = np.full(problem.grid_cells, problem.d)
        columns = []
        for hat in plan.basis.T:
            u, prev, blocks = hat, 0, []
            for s in plan.obs_steps:
                u, _ = pk.march(u, None, w, None, 0.0, 0.0, (plan.h,), plan.dt, int(s) - prev)
                prev = int(s)
                blocks.append(plan.overlap @ u)
            columns.append(np.concatenate(blocks))
        return np.stack(columns, axis=1)

    # 1D pure diffusion at pde_longrun size
    line = Grid(Domain.unit_interval(), (50,))
    coeffs = pde.coefficients_from_laws(diffusion_coverage_law(sine_field(), 0.5), line)
    bump = np.exp(-0.5 * ((line.centers(0) - 0.3) / 0.02) ** 2)
    y_start = GridFunction(line, bump / (bump.sum() * line.cell_volume))
    snaps = (0.2, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2, 3.6, 4.0)
    closed = pde.solve(y_start, coeffs, 4.0, snapshot_times=snaps)

    def marched_solve():
        # the march the closed form replaces, from snapshot to snapshot
        u, prev, rows = y_start.values, 0, []
        for t in closed.times:
            s = round(t / closed.dt)
            u, _ = pk.march(u, None, coeffs.w.values, None, 0.0, 0.0, line.spacing, closed.dt,
                            s - prev)
            prev = s
            rows.append(u)
        return np.array(rows)

    # the graph chain: a seeded 50-vertex, 99-edge random graph
    graph = gr.random_connected_graph(50, 50, np.random.default_rng(4))
    assert len(graph.edges) == 99
    gf = rng.uniform(0.5, 2.0, 50)
    jumps = 300_000
    chain = gr.sample_ctmc(graph, gf, 1.0, 0, np.inf, 11, -1, jumps)
    # a 300-vertex random graph of degrees 1..9: a step table of 300 x 28 slots,
    # with vertex ids past a byte
    mid = gr.random_connected_graph(300, 150, np.random.default_rng(300))
    assert np.unique(mid.degrees).tolist() == list(range(1, 10))
    # vertices 1..300, i ~ j when i + j > 300: the degrees are 1..299
    wide = gr.Graph(300, tuple((i - 1, j - 1) for i in range(1, 301) for j in range(i + 1, 301)
                               if i + j > 300))
    wide_degrees = np.unique(wide.degrees).tolist()
    assert wide_degrees == list(range(1, 300))
    star_graphs = {leaves: gr.Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))
                   for leaves in (400, 10_000)}
    chain_graphs = {"50 vertices": graph, "300 vertices, degrees 1..9": mid,
                    "star of 400 leaves": star_graphs[400],
                    "star of 10,000 leaves": star_graphs[10_000],
                    "300 vertices, degrees 1..299": wide}
    wf = np.linspace(0.5, 2.0, 300)
    # graph, field, seed and the labels of its sampling row and its reference's
    sampled = {
        "50 vertices": (graph, gf, 11, f"sample_ctmc (50 vertices, {jumps:,} jumps)",
                        "sample_ctmc, per-jump walk (reference)"),
        "300 vertices": (mid, wf, 13, f"sample_ctmc (300 vertices, degrees 1..9, {jumps:,} jumps)",
                         "sample_ctmc, 300 vertices, per-jump walk (reference)"),
        "wide graph": (wide, wf, 12, f"sample_ctmc (300 vertices, degrees 1..299, {jumps:,} jumps)",
                       "sample_ctmc, wide graph, per-jump walk (reference)"),
    }
    uniforms = np.random.default_rng(1).random(8192)
    binned = {}
    for name, cut_graph in (("50 vertices", graph), ("star of 400 leaves", star_graphs[400])):
        cuts, _ = gr._choice_table(np.unique(cut_graph.degrees).tolist())
        binned[name] = (len(cuts), gr._slot_bins(cuts), cuts)
    p_start = rng.random(50)
    p_start /= p_start.sum()
    prop_times = [0.25, 0.5, 1.0, 2.0, 4.0]
    tmpdir = tempfile.TemporaryDirectory()
    csv_path = os.path.join(tmpdir.name, "trajectory.csv")
    # three 2D snapshots of a 1e5-agent swarm, half of it stopped
    swarm = [
        SwarmState(t, rng.random((100_000, 2)), (rng.random(100_000) < 0.5).astype(np.uint8))
        for t in (0.5, 1.0, 1.5)
    ]
    snap_path = os.path.join(tmpdir.name, "snapshots.csv")
    # a 750-row observation table: 25 times of the 30-cell window partition
    obs_path = os.path.join(tmpdir.name, "observations.csv")
    est.save_observations_csv(obs_path, obs)
    obs_header = "t,cell_lo,cell_hi,fraction"
    # the columns snapshots_to_csv writes, for the reference writer
    snap_columns = (np.repeat([s.time for s in swarm], 100_000), np.tile(np.arange(100_000), 3),
                    *np.concatenate([s.positions for s in swarm]).T,
                    np.concatenate([s.modes for s in swarm]))
    # a 100-row table of three floats, the size of a bundled estimate.csv
    est_path = os.path.join(tmpdir.name, "estimate.csv")
    csv_refs = {
        csv_path: ("t,vertex", "%.17g,%d", chain.times, chain.vertices),
        snap_path: ("t,agent_id,x,y,mode", "%.17g,%d,%.17g,%.17g,%d", *snap_columns),
        est_path: ("x,u_hat,F_scaled", "%.17g,%.17g,%.17g", (np.arange(100) + 0.5) / 100,
                   rng.random(100) * 2.0, rng.random(100) * 2.0),
    }

    marched = f"inverse map, 10 marched hats ({est._Plan(problem).n_steps} steps)"
    spectral = "inverse map, spectral (100 cells, 10 hats)"
    solve = "solve_inverse, spectral map + NNLS"
    nnls_only = "NNLS alone on the assembled system"
    step_c = "SDE active step (100,000 agents, 2D, C order)"
    step_f = "SDE active step (100,000 agents, 2D, column-major)"
    contains_c = "Domain.contains (100,000 points, C order)"
    contains_f = "Domain.contains (100,000 points, column-major)"
    interp = "interp2 (100,000 points, 33x33 nodes)"
    interp_ref = "interp2 reference, per-corner formula"
    bump_grad = "two-bump gradient (100,000 points, column-major)"
    bump_grad_ref = "two-bump gradient, masked formula (reference)"
    pde_closed = f"1D pure-diffusion solve, closed form ({closed.n_steps:,} steps)"
    pde_marched = "1D pure-diffusion solve, marched (50 cells)"
    setups = {name: f"chain set-up, {name}" for name in chain_graphs}
    bin_rows = {name: (f"slot binning, 8192 uniforms, {n:,} cuts ({name})",
                       f"searchsorted, 8192 uniforms, {n:,} cuts (reference)")
                for name, (n, _, _) in binned.items()}
    reader = "read_csv, 750-row observation table"
    reader_ref = "genfromtxt, 750-row observation table (reference)"
    writer = f"trajectory_to_csv ({jumps:,} jumps)"
    writer_ref = "trajectory, chunked % writer (reference)"
    snap_writer = "snapshots_to_csv (100,000 agents, 2D, 3 snapshots)"
    snap_ref = "snapshots, chunked % writer (reference)"
    est_writer = "write_csv (100 rows of 3 floats, estimate.csv)"
    est_ref = "100 rows of 3 floats, chunked % writer (reference)"

    cases = [
        (step_c, lambda: sk.step_active(swarm_c, D2, None, dt, noise_c, lo, hi)),
        (step_f, lambda: sk.step_active(swarm_f, D2, None, dt, noise_f, lo, hi)),
        (contains_c, lambda: square.contains(swarm_c, atol=1e-12)),
        (contains_f, lambda: square.contains(swarm_f, atol=1e-12)),
        (interp, lambda: fk.interp2(swarm_f[:, 0], swarm_f[:, 1], 0.0, 1 / 32, 0.0, 1 / 32, nodes)),
        (interp_ref, lambda: interp2_reference(
            swarm_f[:, 0], swarm_f[:, 1], 0.0, 1 / 32, 0.0, 1 / 32, nodes)),
        ("SDE active step (10,000 agents, 1D)", step(10_000, 1)),
        (f"SDE switching step ({n:,} agents, 2D)", switching(sk.step_switching)),
        ("two-bump field eval (100,000 points)", lambda: two_bump.eval(bumps)),
        (bump_grad, lambda: two_bump.gradient(bumps_f)),
        (bump_grad_ref, lambda: two_bump_gradient_reference(bumps_f)),
        (f"histogram binning ({n:,} points, 50x50)", lambda: sk.bin_counts(pos, lo, hi, (50, 50))),
        (
            f"FV diffusion march 1D ({nc} cells x {args.steps} steps)",
            lambda: pk.march(y1, None, w1, None, 0.0, 0.0, (h,), dt1, args.steps),
        ),
        (pde_closed, lambda: pde.solve(y_start, coeffs, 4.0, snapshot_times=snaps)),
        (pde_marched, marched_solve),
        (marched, marched_map),
        (spectral, lambda: est._Plan(problem).forward_map),
        (solve, lambda: est.solve_inverse(problem)),
        (nnls_only, lambda: nnls(nnls_M, nnls_b, maxiter=2000)),
        (
            f"FV diffusion march 2D ({n2}x{n2} cells x {args.steps} steps)",
            lambda: pk.march(y2, None, w2, None, 0.0, 0.0, (h2, h2), dt2, args.steps),
        ),
        *((label, lambda g=g, f=f, seed=seed: gr.sample_ctmc(g, f, 1.0, 0, np.inf, seed, -1,
                                                             jumps))
          for g, f, seed, label, _ in sampled.values()),
        *((ref, lambda g=g, f=f, seed=seed: per_jump_sample_ctmc(g, f, 1.0, 0, np.inf, seed, -1,
                                                                 jumps))
          for g, f, seed, _, ref in sampled.values()),
        *((setups[name], lambda g=g: gr._chain(g)) for name, g in chain_graphs.items()),
        *((label, lambda b=b: b(uniforms))
          for (label, _), (_, b, _) in zip(bin_rows.values(), binned.values())),
        *((label, lambda c=c: np.searchsorted(c, uniforms, side="right"))
          for (_, label), (_, _, c) in zip(bin_rows.values(), binned.values())),
        (reader, lambda: read_csv(obs_path, obs_header)),
        (reader_ref, lambda: np.genfromtxt(obs_path, delimiter=",", names=True)),
        (writer, lambda: gr.trajectory_to_csv(chain, csv_path)),
        (writer_ref, lambda: percent_write_csv(csv_path + ".ref", *csv_refs[csv_path])),
        (snap_writer, lambda: snapshots_to_csv(swarm, snap_path)),
        (snap_ref, lambda: percent_write_csv(snap_path + ".ref", *csv_refs[snap_path])),
        (est_writer, lambda: write_csv(est_path, *csv_refs[est_path])),
        (est_ref, lambda: percent_write_csv(est_path + ".ref", *csv_refs[est_path])),
        ("propagate (50 vertices, 5 times)", lambda: gr.propagate(graph, p_start, gf, 1.0, prop_times, -1)),
    ]

    print(f"{'kernel':<55} {'median':>10}")
    times = {}
    for label, fn in cases:
        times[label] = median_time(fn, args.repeats)
        print(f"{label:<55} {times[label] * 1e3:>8.2f}ms")


    for label, c_order, column_major in (
        ("step_active", sk.step_active(swarm_c, D2, None, dt, noise_c, lo, hi),
         sk.step_active(swarm_f, D2, None, dt, noise_f, lo, hi)),
        ("Domain.contains", square.contains(swarm_c, atol=1e-12),
         square.contains(swarm_f, atol=1e-12)),
    ):
        if c_order.tobytes() != np.ascontiguousarray(column_major).tobytes():
            raise SystemExit(f"{label} differs between C order and column-major")
    got = fk.interp2(swarm_f[:, 0], swarm_f[:, 1], 0.0, 1 / 32, 0.0, 1 / 32, nodes)
    want = interp2_reference(swarm_c[:, 0], swarm_c[:, 1], 0.0, 1 / 32, 0.0, 1 / 32, nodes)
    if got.tobytes() != want.tobytes():
        raise SystemExit("interp2 differs from the per-corner formula")
    if two_bump.gradient(bumps_f).tobytes() != two_bump_gradient_reference(bumps_f).tobytes():
        raise SystemExit("two-bump gradient differs from the masked formula")
    print(f"two-bump gradient: {times[bump_grad_ref] / times[bump_grad]:.1f}x faster than the "
          f"masked formula, bits identical")
    print(f"column-major 2D swarm: step {times[step_c] / times[step_f]:.1f}x and domain check "
          f"{times[contains_c] / times[contains_f]:.1f}x faster than C order, bits identical; "
          f"interp2 {times[interp_ref] / times[interp]:.1f}x faster than the per-corner "
          f"formula, bits identical")
    reference = marched_map()
    rel = np.abs(est._Plan(problem).forward_map - reference).max() / np.abs(reference).max()
    if rel > 1e-11:
        raise SystemExit(f"spectral map differs from the marched one by {rel:.1e} relative")
    print(f"inverse map: spectral {times[marched] / times[spectral]:.0f}x faster than the "
          f"marched columns, {rel:.1e} largest relative difference; NNLS alone takes "
          f"{times[nnls_only] * 1e3:.2f} ms of the solve")
    reference = marched_solve()
    got = np.array([snap.values for snap in closed.active])
    rel = np.abs(got - reference).max() / np.abs(reference).max()
    if rel > 1e-10:
        raise SystemExit(f"closed-form solve differs from the march by {rel:.1e} relative")
    print(f"1D pure diffusion: closed form {times[pde_marched] / times[pde_closed]:.0f}x faster "
          f"than the march, {rel:.1e} largest relative difference, mass drift "
          f"{closed.mass_drift:.1e}")
    generator = -gr.laplacian(graph) @ np.diag(gf**-1.0)
    reference = np.array([expm(generator * t) @ p_start for t in prop_times])
    rel = np.abs(gr.propagate(graph, p_start, gf, 1.0, prop_times, -1) - reference).max()
    rel /= np.abs(reference).max()
    if rel > 1e-10:
        raise SystemExit(f"propagate differs from expm by {rel:.1e} relative")
    print(f"propagate: {rel:.1e} largest relative difference from expm")
    for name, (g, f, seed, label, ref) in sampled.items():
        got = chain if g is graph else gr.sample_ctmc(g, f, 1.0, 0, np.inf, seed, -1, jumps)
        reference = per_jump_sample_ctmc(g, f, 1.0, 0, np.inf, seed, -1, jumps)
        for column in ("times", "vertices"):
            if getattr(got, column).tobytes() != getattr(reference, column).tobytes():
                raise SystemExit(f"sample_ctmc {column} ({name}) differ from the per-jump walk's")
        print(f"{label}: {times[label] / jumps * 1e6:.3f} us per jump sampled, set-up included, "
              f"against {times[ref] / jumps * 1e6:.3f} for the per-jump walk, bits identical")
    print(f"{writer}: {times[writer] / jumps * 1e6:.3f} us per row written")
    for name, g in chain_graphs.items():
        degrees = np.unique(g.degrees)
        slots = g.n_vertices * int((degrees - 1).sum() + 1)
        walk = "step table" if slots <= gr._STEP_SLOTS else "per jump (past the bound)"
        peak = traced_peak_mb(lambda g=g: gr._chain(g))
        print(f"{setups[name]}: {walk}, {slots:,} table slots at most, "
              f"{times[setups[name]] * 1e3:.1f} ms, traced peak {peak:.1f} MB")
    for name, (n, bins_of, cuts) in binned.items():
        label, ref = bin_rows[name]
        if bins_of(uniforms).tobytes() != np.searchsorted(cuts, uniforms, side="right").tobytes():
            raise SystemExit(f"{label} differs from searchsorted")
        print(f"{label}: {times[label] / 8192 * 1e9:.1f} ns per uniform, against "
              f"{times[ref] / 8192 * 1e9:.1f} for searchsorted, bins identical")
    got = read_csv(obs_path, obs_header)
    want = np.genfromtxt(obs_path, delimiter=",", names=True)
    if got.dtype != want.dtype or got.tobytes() != want.tobytes():
        raise SystemExit("read_csv differs from genfromtxt")
    print(f"{reader}: {times[reader] / len(got) * 1e6:.2f} us per row, against "
          f"{times[reader_ref] / len(got) * 1e6:.2f} for genfromtxt, names and bits identical")
    for path, label, ref in ((csv_path, writer, writer_ref), (snap_path, snap_writer, snap_ref),
                             (est_path, est_writer, est_ref)):
        with open(path, "rb") as got, open(path + ".ref", "rb") as want:
            if got.read() != want.read():
                raise SystemExit(f"{label} bytes differ from the chunked % writer's")
        print(f"{label}: {times[ref] / times[label]:.1f}x faster than the chunked % writer, "
              f"bytes identical ({os.path.getsize(path):,} B)")
    tmpdir.cleanup()


if __name__ == "__main__":
    main()
