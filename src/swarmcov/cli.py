"""Command-line experiment runner.

Subcommands: ``coverage`` (agent simulation + histogram comparison against the
target field), ``pde`` (mean-field solve + convergence report), ``graph``
(network chain: invariant distribution, transition probabilities, sampling),
``estimate`` (field reconstruction from windowed observations).

All artifacts are CSV written with repr-stable formatting, so a given
(config, seed) pair always produces byte-identical files.  Plotting is left
to external tools; ``--gnuplot`` drops companion scripts next to the data.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Optional

import numpy as np

from . import estimation as est
from . import graphs as gr
from . import pde
# bound under this name here alone: the benchmark wraps every swarmcov binding
# of a hooked writer under its hooked name, so a second binding of write_csv
# as _write_rows would count the bytes of a nested call twice
from ._csv import write_csv as _write_rows
from .config import (
    SCHEMAS,
    _as_seed,
    build_field,
    build_graph,
    build_init,
    build_laws,
    build_node_values,
    load_config,
)
from .errors import ConfigError, DegenerateFitError, DomainError, NumericError
from .fields import GridField, ScalarField, save_field_csv
from .grids import Domain, Grid, GridFunction
from .sde import (
    SimConfig,
    histogram,
    histogram_series_to_csv,
    iter_snapshots,
    tv_distance,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(value: Any) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_summary(path, pairs: list[tuple[str, Any]]) -> None:
    """Write "key,value" rows; each value keeps its own int or float format."""
    keys, values = zip(*pairs)
    _write_rows(path, "key,value", "%s,%s", keys, [_fmt(v) for v in values])


def _section(cfg: dict, subcommand: str, name: str) -> dict[str, Any]:
    """The parsed section, or its schema defaults when absent from the file."""
    if name in cfg:
        return cfg[name]
    return {k: spec.default for k, spec in SCHEMAS[subcommand][name].keys.items()}


def _out_dir(cli_out: Optional[str], cfg: dict) -> str:
    out = cli_out or cfg.get("output", {}).get("dir") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _field_reference(field: ScalarField, grid: Grid) -> GridFunction:
    vals = np.asarray(field(grid.center_points())).reshape(grid.shape)
    return GridFunction(grid, vals).normalized()


def _write_gp(path, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# coverage


def cmd_coverage(cfg: dict, out: str, seed: Optional[int], gnuplot: bool) -> None:
    field = build_field(cfg["field"])
    laws = build_laws(cfg["law"], field)
    sim = cfg["simulation"]
    outputs = _section(cfg, "coverage", "output")
    if outputs["bins"] < 1:
        raise ConfigError("output bins must be at least 1")
    snapshots = sim["snapshots"] or (sim["t_end"],)
    config = SimConfig(
        n_agents=sim["agents"],
        dt=sim["dt"],
        t_end=sim["t_end"],
        seed=sim["seed"] if seed is None else seed,
        snapshot_times=snapshots,
        initial=build_init(sim["init"], field.domain.dim),
    )
    grid = Grid(field.domain, (outputs["bins"],) * field.domain.dim)
    reference = _field_reference(field, grid)
    # each snapshot is binned as it is taken, and no copy of the swarm is kept
    entries = [(s.time, histogram(s, grid)) for s in iter_snapshots(config, laws, field.domain)]
    times = [t for t, _ in entries]
    tvs = [tv_distance(h, reference) for _, h in entries]
    histogram_series_to_csv(entries, os.path.join(out, "histograms.csv"))
    _write_rows(os.path.join(out, "tv_summary.csv"), "t,tv", "%.17g,%.17g", times, tvs)
    if gnuplot:
        _write_gp(
            os.path.join(out, "coverage.gp"),
            [
                'set datafile separator ","',
                "set key autotitle columnhead",
                'set xlabel "t"',
                'set ylabel "TV distance to target"',
                'plot "tv_summary.csv" using 1:2 with linespoints',
                "pause -1",
            ],
        )


# ---------------------------------------------------------------------------
# pde


def _initial_density(sec: dict[str, Any], grid: Grid) -> GridFunction:
    kind = sec["kind"]
    pts = grid.center_points()
    if kind == "uniform":
        vals = np.ones(grid.n_cells)
    elif kind == "gaussian":
        center = np.asarray(
            sec["center"] or [0.5 * (lo + hi) for lo, hi in grid.domain.extents]
        )
        if center.shape != (grid.dim,):
            raise ConfigError(f"initial center needs {grid.dim} coordinate(s)")
        if sec["sigma"] <= 0:
            raise ConfigError("initial sigma must be positive")
        vals = np.exp(-((pts - center) ** 2).sum(axis=1) / (2.0 * sec["sigma"] ** 2))
    elif kind == "cosine":
        amp = sec["amplitude"]
        if not -1.0 < amp < 1.0:
            raise ConfigError("cosine amplitude must sit in (-1, 1)")
        vals = np.ones(grid.n_cells)
        for ax, (lo, hi) in enumerate(grid.domain.extents):
            vals = vals * (1.0 + amp * np.cos(np.pi * (pts[:, ax] - lo) / (hi - lo)))
    else:
        raise ConfigError(f"unknown initial kind {kind!r}")
    return GridFunction(grid, vals.reshape(grid.shape)).normalized()


def cmd_pde(cfg: dict, out: str, seed: Optional[int], gnuplot: bool) -> None:
    field = build_field(cfg["field"]) if "field" in cfg else None
    laws = build_laws(cfg["law"], field)
    solver = cfg["solver"]
    if solver["cells"] < 2:
        raise ConfigError("solver cells must be at least 2")
    domain = field.domain if field is not None else Domain.unit_interval()
    grid = Grid(domain, (solver["cells"],) * domain.dim)
    t_end = solver["t_end"]
    snaps = solver["snapshots"] or tuple(t_end * i / 16 for i in range(1, 17))
    coeffs = pde.coefficients_from_laws(laws, grid)
    y0 = _initial_density(_section(cfg, "pde", "initial"), grid)
    report = pde.solve(y0, coeffs, t_end, snapshot_times=snaps, safety=solver["safety"])

    target = pde.steady_state(coeffs.w)
    rate: float = float("nan")
    r2: float = float("nan")
    tv_final: float = float("nan")
    norm_rows = []
    if not coeffs.reactive:
        cellvol = grid.cell_volume
        for t, gf in report.pairs():
            norm = float(np.sqrt(((gf.values - target.values) ** 2).sum() * cellvol))
            norm_rows.append((t, norm))
        tv_final = tv_distance(report.final, target)
        try:
            rate, r2 = pde.decay_rate(report.pairs(), target)
        except (DegenerateFitError, ValueError):
            pass  # converged input or too few snapshots: report stays nan
    norms = np.reshape(norm_rows, (-1, 2)).T  # t and norm columns, empty when reactive
    histogram_series_to_csv(report.pairs(), os.path.join(out, "snapshots.csv"))
    _write_rows(os.path.join(out, "decay_norms.csv"), "t,residual_norm", "%.17g,%.17g", *norms)
    _write_summary(
        os.path.join(out, "report.csv"),
        [
            ("dt", report.dt),
            ("n_steps", report.n_steps),
            ("mass_drift", report.mass_drift),
            ("decay_rate", rate),
            ("decay_r2", r2),
            ("tv_final_to_steady", tv_final),
        ],
    )
    if gnuplot:
        _write_gp(
            os.path.join(out, "pde.gp"),
            [
                'set datafile separator ","',
                "set key autotitle columnhead",
                "set logscale y",
                'set xlabel "t"',
                'set ylabel "distance to steady state"',
                'plot "decay_norms.csv" using 1:2 with linespoints',
                "pause -1",
            ],
        )


# ---------------------------------------------------------------------------
# graph


def _build_p0(spec: str, n: int) -> np.ndarray:
    head, _, rest = spec.partition(":")
    if head == "uniform" and not rest:
        return np.full(n, 1.0 / n)
    if head == "vertex":
        try:
            v = int(rest)
        except ValueError as exc:
            raise ConfigError(f"bad p0 spec {spec!r}") from exc
        if not 0 <= v < n:
            raise ConfigError(f"p0 vertex {v} out of range")
        p0 = np.zeros(n)
        p0[v] = 1.0
        return p0
    raise ConfigError(f"unknown p0 spec {spec!r}")


def cmd_graph(cfg: dict, out: str, seed: Optional[int], gnuplot: bool) -> None:
    g = build_graph(cfg["graph"])
    rates = cfg["rates"]
    f = build_node_values(rates, g.n_vertices)
    c, exponent = rates["c"], rates["exponent"]
    if c <= 0:
        raise ConfigError("rate constant c must be positive")
    rates = c * f ** float(exponent) * g.degrees
    # a one-vertex graph has degree 0 and never jumps
    if not (np.isfinite(rates).all() and (rates > 0)[g.degrees > 0].all()):
        raise ConfigError("jump rates c * f**exponent * degree must be finite and positive")
    if "sample" in cfg:
        samp = cfg["sample"]
        t_end, max_jumps = samp["t_end"], samp["max_jumps"]
        if not t_end > 0:
            raise ConfigError("sample t_end must be positive")
        if max_jumps is not None and max_jumps < 1:
            raise ConfigError("sample max_jumps must be at least 1")
        if not np.isfinite(t_end):
            if max_jumps is None:
                raise ConfigError("sampling needs a finite t_end or a max_jumps cap")
            if g.n_vertices == 1:
                raise ConfigError("a one-vertex graph never jumps: sampling needs a finite t_end")

    # everything is computed, and so checked by the library, before any
    # artifact is written; the sampled path, checked when its stream is made,
    # is drawn as trajectory.csv is written and counted as it goes by
    pi = gr.invariant_distribution(g, f, exponent)
    residual = gr.laplacian(g) @ (c * f ** float(exponent) * pi)
    summary: list[tuple[str, Any]] = [("max_residual", float(np.abs(residual).max()))]
    if "propagate" in cfg:
        times = np.asarray(cfg["propagate"]["times"])
        p0 = _build_p0(cfg["propagate"]["p0"], g.n_vertices)
        ps = gr.propagate(g, p0, f, c, times, exponent)
    if "sample" in cfg:
        run_seed = samp["seed"] if seed is None else seed
        path = gr.iter_ctmc(g, f, c, samp["start"], t_end, run_seed, exponent, max_jumps)
        counter = gr.OccupationCounter(g.n_vertices, t_end if np.isfinite(t_end) else None,
                                       None if max_jumps is None else max_jumps + 1)

    vertices = np.arange(g.n_vertices)
    _write_rows(os.path.join(out, "invariant.csv"), "vertex,pi,residual", "%d,%.17g,%.17g",
                vertices, pi, residual)
    if "propagate" in cfg:
        columns = np.repeat(times, g.n_vertices), np.tile(vertices, len(times)), ps.ravel()
        _write_rows(os.path.join(out, "propagate.csv"), "t,vertex,probability", "%.17g,%d,%.17g",
                    *columns)
    if "sample" in cfg:
        gr.trajectory_to_csv(counter.counting(path), os.path.join(out, "trajectory.csv"))
        occ = counter.fractions()
        if not np.isfinite(occ).all():
            # tiny rates make holding times near the float limit, and their sum overflows
            raise NumericError("sampled jump times overflow to inf: occupation is not finite")
        _write_rows(os.path.join(out, "occupation.csv"), "vertex,occupation", "%d,%.17g",
                    vertices, occ)
        summary.append(("tv_occupation_vs_pi", 0.5 * float(np.abs(occ - pi).sum())))
        summary.append(("n_jumps", counter.n_rows - 1))
    _write_summary(os.path.join(out, "summary.csv"), summary)
    if gnuplot:
        lines = [
            'set datafile separator ","',
            "set key autotitle columnhead",
            'set xlabel "vertex"',
            'set ylabel "probability"',
        ]
        plot = 'plot "invariant.csv" using 1:2 with points pt 7'
        if "sample" in cfg:
            plot += ', "occupation.csv" using 1:2 with points pt 5'
        _write_gp(os.path.join(out, "graph.gp"), lines + [plot, "pause -1"])


# ---------------------------------------------------------------------------
# estimate


def _cell_averages(field: ScalarField, partition: est.Partition, points: int = 512) -> np.ndarray:
    """Midpoint-rule cell averages of the field over partition cells."""
    out = np.empty(partition.n_cells)
    for w, (lo, hi) in enumerate(partition.cells):
        xs = lo + (hi - lo) * (np.arange(points) + 0.5) / points
        out[w] = float(np.mean(field(xs)))
    return out


def cmd_estimate(cfg: dict, out: str, seed: Optional[int], gnuplot: bool) -> None:
    if ("protocol" in cfg) == ("observations" in cfg):
        raise ConfigError("give exactly one of [protocol] or [observations]")
    inverse = _section(cfg, "estimate", "inverse")
    if inverse["max_iters"] < 1:
        raise ConfigError("inverse max_iters must be at least 1")
    field = build_field(cfg["field"]) if "field" in cfg else None

    if "protocol" in cfg:
        if field is None:
            raise ConfigError("[protocol] mode needs a [field] section")
        if "window" not in cfg:
            raise ConfigError("[protocol] mode needs a [window] section")
        win = cfg["window"]
        proto = cfg["protocol"]
        partition = est.window_partition((win["lo"], win["hi"]), win["divisor"])
        result = est.run_protocol(
            field,
            coverage_gain=proto["c1"],
            d=proto["d"],
            T1=proto["t1"],
            T2=proto["t2"],
            n_agents=proto["agents"],
            partition=partition,
            seed=proto["seed"] if seed is None else seed,
            dt_coverage=proto["dt_coverage"],
            n_obs=proto["n_obs"],
            lam=inverse["lam"],
            basis_size=inverse["basis"],
            grid_cells=inverse["cells"],
            max_iters=inverse["max_iters"],
        )
        estimate, observations = result.estimate, result.observations
    else:
        obs_sec = cfg["observations"]
        domain = field.domain if field is not None else Domain.unit_interval()
        observations = est.load_observations_csv(obs_sec["path"])
        problem = est.EstimationProblem(
            domain=domain,
            grid_cells=inverse["cells"],
            basis_size=inverse["basis"],
            d=obs_sec["d"],
            lam=inverse["lam"],
            T1=obs_sec["t1"],
            T2=obs_sec["t2"],
            obs=observations,
        )
        partition = observations.partition
        estimate = est.solve_inverse(problem, max_iters=inverse["max_iters"]).normalized()

    summary: list[tuple[str, Any]] = [
        ("kkt_residual", estimate.kkt_residual),
        ("objective_final", estimate.objective_history[-1]),
    ]
    scaled = truth_nodes = None
    if field is not None:
        grid = estimate.u_hat.grid
        truth = _field_reference(field, grid)
        err = float(
            np.linalg.norm(estimate.u_hat.values - truth.values)
            / np.linalg.norm(truth.values)
        )
        summary.append(("rel_l2_error", err))
        known = _cell_averages(field, partition)
        scaled, scale = est.rescale_with_known(estimate.u_hat, partition, known)
        summary.append(("scale", scale))
        xs = grid.centers(0)
        truth_nodes = GridField((xs,), np.asarray(field(xs)), label="truth")
    est.save_observations_csv(os.path.join(out, "observations.csv"), observations)
    if truth_nodes is not None:
        save_field_csv(truth_nodes, os.path.join(out, "truth.csv"))
    est.save_estimate_csv(os.path.join(out, "estimate.csv"), estimate.u_hat, scaled)
    _write_summary(os.path.join(out, "summary.csv"), summary)

    if gnuplot:
        plot = 'plot "estimate.csv" using 1:2 with lines'
        if field is not None:
            plot += ', "truth.csv" using 1:($2/{:.17g}) with lines'.format(
                float(np.asarray(field(estimate.u_hat.grid.centers(0))).sum()
                      * estimate.u_hat.grid.cell_volume)
            )
        _write_gp(
            os.path.join(out, "estimate.gp"),
            [
                'set datafile separator ","',
                "set key autotitle columnhead",
                'set xlabel "x"',
                'set ylabel "density"',
                plot,
                "pause -1",
            ],
        )


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "coverage": (cmd_coverage, "simulate agents and compare histograms to the field"),
    "pde": (cmd_pde, "solve the mean-field equations and report convergence"),
    "graph": (cmd_graph, "network chain: invariant law, propagation, sampling"),
    "estimate": (cmd_estimate, "reconstruct the field from windowed observations"),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarmcov",
        description="Swarm coverage experiments: simulation, mean-field, network, estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI experiment description")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=_as_seed, default=None, help="override the config seed")
        p.add_argument("--gnuplot", action="store_true", help="emit companion plot scripts")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.command)
        out = _out_dir(args.out, cfg)
        # a numeric fault is reported once, by the exit-3 line of the check
        # that meets its inf or NaN, not also by numpy's RuntimeWarnings
        with np.errstate(all="ignore"):
            _COMMANDS[args.command][0](cfg, out, args.seed, args.gnuplot)
    # the numeric clause comes first: DomainError and LinAlgError are ValueErrors
    except (NumericError, DegenerateFitError, DomainError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"swarmcov: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # every other value the library rejects, and every file it cannot read, is
    # bad input: the library checks it before a subcommand writes its first file
    except (ConfigError, ValueError, OSError) as exc:
        print(f"swarmcov: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
