"""Interacting-free swarm simulation: reflected diffusions with stop-and-go.

Each agent follows an Euler step of ``dX = a(X) dt + sqrt(2) D(X) dW`` with
specular reflection at the domain walls, optionally interrupted by a two-state
(moving/stopped) switching process with deactivation rate H(x) and
reactivation rate k.  All randomness comes from counter-based streams keyed by
(seed, step), so trajectories are bit-identical across repeat runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence, Union

import numpy as np

from . import _sde_kernels as _sk
from ._csv import centers_to_axis, read_csv, write_csv
from .errors import ConfigError
from .fields import ControlLaws
from .grids import Domain, Grid, GridFunction, as_points, snapshot_steps

__all__ = [
    "Mode",
    "SwarmState",
    "GaussianInit",
    "UniformInit",
    "PointInit",
    "SimConfig",
    "reflect",
    "simulate",
    "histogram",
    "tv_distance",
    "snapshots_to_csv",
    "load_snapshots_csv",
    "histogram_series_to_csv",
    "load_histogram_series_csv",
]

# stream tag for draws that happen before stepping starts
_INIT_TAG = np.uint64(2**63)


class Mode(IntEnum):
    PASSIVE = 0
    ACTIVE = 1


@dataclass
class SwarmState:
    """Positions (n, d) and modes (n,) of the whole swarm at one time."""

    time: float
    positions: np.ndarray
    modes: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class GaussianInit:
    center: tuple[float, ...]
    sigma: float


@dataclass(frozen=True)
class UniformInit:
    pass


@dataclass(frozen=True)
class PointInit:
    position: tuple[float, ...]


InitialDistribution = Union[GaussianInit, UniformInit, PointInit]


@dataclass(frozen=True)
class SimConfig:
    n_agents: int
    dt: float
    t_end: float
    seed: int
    snapshot_times: tuple[float, ...] = ()
    initial: InitialDistribution = UniformInit()

    def __post_init__(self):
        if self.n_agents < 1:
            raise ConfigError("n_agents must be at least 1")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        for t in self.snapshot_times:
            if not 0 <= t <= self.t_end:
                raise ConfigError(f"snapshot time {t} outside [0, t_end]")


def _stream(seed: int, tag) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reflect(x, domain: Domain):
    """Fold a point or (n, d) batch into the domain by specular reflection."""
    pts, single = as_points(x, domain.dim)
    out = _sk.reflect_points(np.ascontiguousarray(pts), domain.lo, domain.hi)
    if single:
        return float(out[0, 0]) if np.ndim(x) == 0 else out[0]
    if domain.dim == 1 and np.asarray(x).ndim == 1:
        return out[:, 0]
    return out


def _initial_positions(config: SimConfig, domain: Domain) -> np.ndarray:
    rng = _stream(config.seed, _INIT_TAG)
    n, d = config.n_agents, domain.dim
    init = config.initial
    if isinstance(init, UniformInit):
        u = rng.random((n, d))
        return domain.lo + u * (domain.hi - domain.lo)
    if isinstance(init, PointInit):
        p = np.asarray(init.position, dtype=float)
        if p.shape != (d,) or not domain.contains(p.reshape(1, -1))[0]:
            raise ConfigError(f"point initial condition {init.position} invalid for domain")
        return np.tile(p, (n, 1))
    if isinstance(init, GaussianInit):
        center = np.asarray(init.center, dtype=float)
        if center.shape != (d,):
            raise ConfigError("gaussian center dimension mismatch")
        if init.sigma <= 0:
            raise ConfigError("gaussian sigma must be positive")
        pos = np.empty((n, d))
        pending = np.arange(n)
        # redraw until every sample lands inside the domain
        while pending.size:
            draw = center + init.sigma * rng.standard_normal((pending.size, d))
            ok = (draw >= domain.lo).all(axis=1) & (draw <= domain.hi).all(axis=1)
            pos[pending[ok]] = draw[ok]
            pending = pending[~ok]
        return pos
    raise ConfigError(f"unknown initial distribution {init!r}")


def _probe_max(fn, domain: Domain, resolution: int = 128) -> float:
    grid = Grid(domain, (resolution,) * domain.dim)
    return float(np.max(fn(grid.center_points())))


def simulate(
    config: SimConfig,
    laws: ControlLaws,
    domain: Domain,
    initial_state: Optional[SwarmState] = None,
    step_offset: int = 0,
) -> list[SwarmState]:
    """Run the swarm and return snapshots at the requested times.

    Snapshots are taken at the nearest step time >= each requested time.
    ``initial_state``/``step_offset`` allow continuing a previous run under
    new laws without reusing any random-stream keys.
    """
    dt = config.dt
    if laws.k * dt >= 1.0:
        raise ConfigError(f"dt*k = {laws.k * dt:g} must stay below 1")
    switching = laws.switching
    if switching:
        max_h = _probe_max(laws.H_at, domain)
        if max_h * dt >= 1.0:
            raise ConfigError(f"dt*max(H) ~ {max_h * dt:g} must stay below 1")

    # the swarm is held column-major, so each per-agent operation runs one
    # contiguous loop per axis; snapshots are C-ordered copies
    if initial_state is not None:
        positions = np.array(initial_state.positions, dtype=float, order="F")
        modes = np.ascontiguousarray(initial_state.modes, dtype=np.uint8).copy()
        t0 = initial_state.time
        if positions.shape != (config.n_agents, domain.dim):
            raise ConfigError("initial state does not match agent count / dimension")
    else:
        positions = np.asfortranarray(_initial_positions(config, domain))
        modes = np.ones(config.n_agents, dtype=np.uint8)
        t0 = 0.0

    n_steps = int(np.ceil(config.t_end / dt - 1e-9)) if config.t_end > 0 else 0
    snap_at = set(snapshot_steps(config.snapshot_times, dt, n_steps))
    switching = switching or bool((modes == 0).any())

    lo, hi = domain.lo, domain.hi
    n = config.n_agents
    out: list[SwarmState] = []

    def record(step: int):
        if step in snap_at:
            out.append(SwarmState(t0 + step * dt, positions.copy(), modes.copy()))

    record(0)
    for step in range(1, n_steps + 1):
        rng = _stream(config.seed, step_offset + step)
        noise = np.asfortranarray(rng.standard_normal((n, domain.dim)))
        D = laws.D_at(positions)
        drift = None if laws.a is None else laws.a_at(positions)
        if switching:
            unif = rng.random((n, 2))
            H = laws.H_at(positions)
            _sk.step_switching(
                positions, modes, D, drift, H, laws.k, dt, noise, unif, lo, hi
            )
        else:
            positions = _sk.step_active(positions, D, drift, dt, noise, lo, hi)
        record(step)
    return out


def histogram(state: Union[SwarmState, np.ndarray], grid: Grid) -> GridFunction:
    """Empirical density of the swarm on a grid: count / (n_agents * cell volume)."""
    positions = state.positions if isinstance(state, SwarmState) else np.asarray(state, float)
    if positions.ndim == 1:
        positions = positions.reshape(-1, 1)
    counts = _sk.bin_counts(
        np.ascontiguousarray(positions), grid.domain.lo, grid.domain.hi, grid.shape
    )
    dens = counts.astype(float) / (positions.shape[0] * grid.cell_volume)
    return GridFunction(grid, dens)


def tv_distance(p: GridFunction, q: GridFunction) -> float:
    """Total variation distance between two densities on the same grid."""
    if p.grid.shape != q.grid.shape or p.grid.domain.extents != q.grid.domain.extents:
        raise ValueError("total variation needs matching grids")
    return float(0.5 * np.abs(p.values - q.values).sum() * p.grid.cell_volume)


def snapshots_to_csv(snapshots: Sequence[SwarmState], path) -> None:
    """Write snapshots as CSV rows t,agent_id,x[,y],mode."""
    if not snapshots:
        raise ValueError("no snapshots to write")
    dim = snapshots[0].positions.shape[1]
    header = "t,agent_id,x,mode" if dim == 1 else "t,agent_id,x,y,mode"
    times = np.repeat([s.time for s in snapshots], [s.n_agents for s in snapshots])
    ids = np.concatenate([np.arange(s.n_agents) for s in snapshots])
    positions = np.concatenate([s.positions for s in snapshots]).T
    modes = np.concatenate([s.modes for s in snapshots])
    write_csv(path, header, "%.17g,%d," + "%.17g," * dim + "%d", times, ids, *positions, modes)


def histogram_series_to_csv(entries: Sequence[tuple[float, GridFunction]], path) -> None:
    """Write (time, histogram) pairs as CSV rows t,cell_x[,cell_y],density."""
    if not entries:
        raise ValueError("no histograms to write")
    grid = entries[0][1].grid
    header = "t,cell_x,density" if grid.dim == 1 else "t,cell_x,cell_y,density"
    times = np.repeat([t for t, _ in entries], grid.n_cells)
    centers = np.tile(grid.center_points(), (len(entries), 1)).T
    values = np.concatenate([gf.values.ravel() for _, gf in entries])
    write_csv(path, header, ",".join(["%.17g"] * (grid.dim + 2)), times, *centers, values)


def load_snapshots_csv(path) -> list[SwarmState]:
    """Read the format written by snapshots_to_csv."""
    raw = read_csv(path, "t,agent_id,x,mode", "t,agent_id,x,y,mode")
    coords = ["x"] if "y" not in raw.dtype.names else ["x", "y"]
    out = []
    for t in np.unique(raw["t"]):
        rows = raw[raw["t"] == t]
        order = np.argsort(rows["agent_id"], kind="stable")
        rows = rows[order]
        positions = np.column_stack([rows[c] for c in coords])
        out.append(SwarmState(float(t), positions, rows["mode"].astype(np.uint8)))
    return out


def load_histogram_series_csv(path) -> list[tuple[float, GridFunction]]:
    """Read the format written by histogram_series_to_csv."""
    raw = read_csv(path, "t,cell_x,density", "t,cell_x,cell_y,density")
    axes = ["cell_x"] if "cell_y" not in raw.dtype.names else ["cell_x", "cell_y"]
    extents, shape = [], []
    for name in axes:
        lo, hi, n = centers_to_axis(raw[name])
        extents.append((lo, hi))
        shape.append(n)
    grid = Grid(Domain(tuple(extents)), tuple(shape))
    out = []
    for t in np.unique(raw["t"]):
        rows = raw[raw["t"] == t]
        if len(rows) != grid.n_cells:
            raise ValueError("incomplete histogram table")
        # rows were written in C order over the grid
        out.append((float(t), GridFunction(grid, rows["density"].reshape(grid.shape))))
    return out
