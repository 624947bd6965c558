#!/usr/bin/env python3
"""Time the hot kernels: vectorized numpy, one call over the whole swarm.

Results are medians over repeats, after one warm-up call.  The agent-step
rows run at the sizes the CLI steps: 1e5 agents in 2D (coverage) and 1e4 in
1D (the estimation protocol), both with zero drift as the diffusion coverage
law has.  The 2D step and the domain check run twice on one swarm: as a
C-ordered (n, 2) array and column-major, the layout sde.simulate keeps; the
two must agree bit for bit.  The interp2 row interpolates a 33x33 node grid
(the benchmark's CSV field size) at 1e5 points and must match, bit for bit,
the per-corner formula it replaced, kept here as the reference.
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
graph runs (50 vertices, 99 edges, exponent -1, 3e5 jumps), write it as CSV,
and propagate the master equation to 5 times, which must match
scipy.linalg.expm of the generator to 1e-10 relative.
The CSV rows write the 3e5-jump trajectory and three 2D snapshots of 1e5
agents, the coverage runs' swarm size, with write_csv, which formats the
cells in numpy, and with the chunked % writer it replaced, kept here as the
reference; the two must write the same bytes.

Usage: python3 benchmarks/bench_kernels.py [--agents N] [--cells N] [--steps N]
       [--repeats N]
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

import numpy as np
from scipy.linalg import expm
from scipy.optimize import nnls

from swarmcov import _field_kernels as fk
from swarmcov import _pde_kernels as pk
from swarmcov import _sde_kernels as sk
from swarmcov import estimation as est
from swarmcov import graphs as gr
from swarmcov import (
    SwarmState,
    diffusion_coverage_law,
    pde,
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--agents", type=int, default=200_000)
    ap.add_argument("--cells", type=int, default=4096)
    ap.add_argument("--steps", type=int, default=200, help="march steps per PDE timing")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

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
                u = pk.march_diffusion_1d(u, w, plan.h, plan.dt, int(s) - prev)
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
            u = pk.march_diffusion_1d(u, coeffs.w.values, line.spacing[0], closed.dt, s - prev)
            prev = s
            rows.append(u)
        return np.array(rows)

    # the graph chain: a seeded 50-vertex, 99-edge random graph
    graph = gr.random_connected_graph(50, 50, np.random.default_rng(4))
    assert len(graph.edges) == 99
    gf = rng.uniform(0.5, 2.0, 50)
    jumps = 300_000
    chain = gr.sample_ctmc(graph, gf, 1.0, 0, np.inf, 11, -1, jumps)
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
    # the columns snapshots_to_csv writes, for the reference writer
    snap_columns = (np.repeat([s.time for s in swarm], 100_000), np.tile(np.arange(100_000), 3),
                    *np.concatenate([s.positions for s in swarm]).T,
                    np.concatenate([s.modes for s in swarm]))
    csv_refs = {
        csv_path: ("t,vertex", "%.17g,%d", chain.times, chain.vertices),
        snap_path: ("t,agent_id,x,y,mode", "%.17g,%d,%.17g,%.17g,%d", *snap_columns),
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
    pde_closed = f"1D pure-diffusion solve, closed form ({closed.n_steps:,} steps)"
    pde_marched = "1D pure-diffusion solve, marched (50 cells)"
    sampler = f"sample_ctmc (50 vertices, {jumps:,} jumps)"
    writer = f"trajectory_to_csv ({jumps:,} jumps)"
    writer_ref = "trajectory, chunked % writer (reference)"
    snap_writer = "snapshots_to_csv (100,000 agents, 2D, 3 snapshots)"
    snap_ref = "snapshots, chunked % writer (reference)"

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
        (f"histogram binning ({n:,} points, 50x50)", lambda: sk.bin_counts(pos, lo, hi, (50, 50))),
        (
            f"FV diffusion march 1D ({nc} cells x {args.steps} steps)",
            lambda: pk.march_diffusion_1d(y1, w1, h, dt1, args.steps),
        ),
        (pde_closed, lambda: pde.solve(y_start, coeffs, 4.0, snapshot_times=snaps)),
        (pde_marched, marched_solve),
        (marched, marched_map),
        (spectral, lambda: est._Plan(problem).forward_map),
        (solve, lambda: est.solve_inverse(problem)),
        (nnls_only, lambda: nnls(nnls_M, nnls_b, maxiter=2000)),
        (
            f"FV diffusion march 2D ({n2}x{n2} cells x {args.steps} steps)",
            lambda: pk.march_diffusion_2d(y2, w2, h2, h2, dt2, args.steps),
        ),
        (sampler, lambda: gr.sample_ctmc(graph, gf, 1.0, 0, np.inf, 11, -1, jumps)),
        (writer, lambda: gr.trajectory_to_csv(chain, csv_path)),
        (writer_ref, lambda: percent_write_csv(csv_path + ".ref", *csv_refs[csv_path])),
        (snap_writer, lambda: snapshots_to_csv(swarm, snap_path)),
        (snap_ref, lambda: percent_write_csv(snap_path + ".ref", *csv_refs[snap_path])),
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
    print(f"graph chain: {times[sampler] / jumps * 1e6:.3f} us per jump sampled, "
          f"{times[writer] / jumps * 1e6:.3f} us per row written")
    for path, label, ref in ((csv_path, writer, writer_ref), (snap_path, snap_writer, snap_ref)):
        with open(path, "rb") as got, open(path + ".ref", "rb") as want:
            if got.read() != want.read():
                raise SystemExit(f"{label} bytes differ from the chunked % writer's")
        print(f"{label}: {times[ref] / times[label]:.1f}x faster than the chunked % writer, "
              f"bytes identical ({os.path.getsize(path):,} B)")
    tmpdir.cleanup()


if __name__ == "__main__":
    main()
