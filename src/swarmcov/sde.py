"""Interacting-free swarm simulation: reflected diffusions with stop-and-go.

Each agent follows an Euler step of ``dX = a(X) dt + sqrt(2) D(X) dW`` with
specular reflection at the domain walls, optionally interrupted by a two-state
(moving/stopped) switching process with deactivation rate H(x) and
reactivation rate k.  All randomness comes from counter-based streams keyed by
(seed, step), so trajectories are bit-identical across repeat runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Optional, Sequence, Union

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
    "iter_snapshots",
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
        if not np.ceil(self.t_end / self.dt - 1e-9) < 2.0**63:
            raise ConfigError(
                f"t_end / dt = {self.t_end / self.dt:g} steps: the step count does not fit int64"
            )
        for t in self.snapshot_times:
            if not 0 <= t <= self.t_end:
                raise ConfigError(f"snapshot time {t} outside [0, t_end]")


_FRESH = (0, 0, 0, 0)


@functools.cache
def _shared_generator() -> np.random.Generator:
    # One Philox generator, re-keyed for every stream: setting its state costs
    # a fraction of building a Generator, and gives the same draws.  Made on
    # first use, as importing numpy.random takes tens of ms.
    return np.random.Generator(np.random.Philox(0))


def _stream(seed: int, tag) -> np.random.Generator:
    """The generator of stream (seed, tag): it draws what
    ``Generator(Philox(key=np.array([seed, tag], dtype=np.uint64)))`` draws.

    Every call re-keys and returns the same module-level generator, so a
    stream is good until the next call: draw all of one stream before asking
    for another (and never from two threads at once).
    """
    generator = _shared_generator()
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _FRESH, "key": (seed, tag)},
        "buffer": _FRESH,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def reflect(x, domain: Domain):
    """Fold a point or (n, d) batch into the domain by specular reflection."""
    pts, single = as_points(x, domain.dim)
    out = _sk.reflect_points(np.ascontiguousarray(pts), domain.lo, domain.hi)
    if single:
        return float(out[0, 0]) if np.ndim(x) == 0 else out[0]
    if domain.dim == 1 and np.asarray(x).ndim == 1:
        return out[:, 0]
    return out


def _rows_outside(pts: np.ndarray, domain: Domain) -> np.ndarray:
    """Indices of the rows of pts with a coordinate outside the domain (NaN
    included).  Each column's min and max are tested first, so a batch that
    lies inside builds no mask."""
    if all(
        pts[:, j].min() >= lo and pts[:, j].max() <= hi
        for j, (lo, hi) in enumerate(domain.extents)
    ):
        return np.empty(0, dtype=np.intp)
    ok = (pts >= domain.lo).all(axis=1) & (pts <= domain.hi).all(axis=1)
    return np.flatnonzero(~ok)


def _gaussian_draw(rng, center, sigma: float, n: int) -> np.ndarray:
    # in place: sigma * z + center, the bits of center + sigma * z
    draw = rng.standard_normal((n, center.shape[0]))
    draw *= sigma
    draw += center
    return draw


def _initial_positions(config: SimConfig, domain: Domain) -> np.ndarray:
    """The swarm's starting positions, column-major (n, d)."""
    rng = _stream(config.seed, _INIT_TAG)
    n, d = config.n_agents, domain.dim
    init = config.initial
    if isinstance(init, UniformInit):
        # in place: u * span + lo, the bits of lo + u * span
        pos = rng.random((n, d))
        pos *= domain.hi - domain.lo
        pos += domain.lo
        return np.asfortranarray(pos)
    if isinstance(init, PointInit):
        p = np.asarray(init.position, dtype=float)
        if p.shape != (d,) or not domain.contains(p.reshape(1, -1))[0]:
            raise ConfigError(f"point initial condition {init.position} invalid for domain")
        pos = np.empty((n, d), order="F")
        pos[...] = p
        return pos
    if isinstance(init, GaussianInit):
        center = np.asarray(init.center, dtype=float)
        if center.shape != (d,):
            raise ConfigError("gaussian center dimension mismatch")
        if init.sigma <= 0:
            raise ConfigError("gaussian sigma must be positive")
        pos = _gaussian_draw(rng, center, init.sigma, n)
        pending = _rows_outside(pos, domain)
        # redraw the rows outside until every sample lands inside the domain
        while pending.size:
            draw = _gaussian_draw(rng, center, init.sigma, pending.size)
            bad = _rows_outside(draw, domain)
            ok = np.ones(pending.size, dtype=bool)
            ok[bad] = False
            pos[pending[ok]] = draw[ok]
            pending = pending[bad]
        return np.asfortranarray(pos)
    raise ConfigError(f"unknown initial distribution {init!r}")


def _probe_max(fn, domain: Domain, resolution: int = 128) -> float:
    grid = Grid(domain, (resolution,) * domain.dim)
    return float(np.max(fn(grid.center_points())))


def iter_snapshots(
    config: SimConfig,
    laws: ControlLaws,
    domain: Domain,
    initial_state: Optional[SwarmState] = None,
    step_offset: int = 0,
) -> Iterator[SwarmState]:
    """Run the swarm, yielding its live state at each snapshot step.

    Snapshots are taken at the nearest step time >= each requested time.
    ``initial_state``/``step_offset`` allow continuing a previous run under
    new laws without reusing any random-stream keys.  The config and laws
    are checked, and the initial positions drawn, when this is called; the
    steps run as the result is iterated.

    A yielded state holds views of the run's own buffers (positions
    column-major): use or copy it before asking for the next one, which
    overwrites it.  ``simulate`` keeps copies.

    Buffers: the run owns the swarm (``positions``, ``modes``) and the draw
    buffers, each allocated once.  Each step draws the whole swarm's normals,
    and its uniforms when switching, into the draw buffers with ``out=``, in
    stream order.  It then runs the laws and the step kernel over blocks of
    ``_sde_kernels.BLOCK`` agents: one ``laws.motion`` call gives a block's D
    and drift, and, when switching, ``laws.H`` its stop rate (0 for a law
    without one, whose stopped agents only restart).  Each block is written
    back into its rows of the swarm: an active block in place, a switching
    block through one block-sized scratch buffer.  So every law output and
    kernel temporary is block-sized, whatever the swarm.
    """
    dt = config.dt
    if laws.k * dt >= 1.0:
        raise ConfigError(f"dt*k = {laws.k * dt:g} must stay below 1")
    switching = laws.switching
    if switching:
        max_h = _probe_max(laws.H, domain)
        if max_h * dt >= 1.0:
            raise ConfigError(f"dt*max(H) ~ {max_h * dt:g} must stay below 1")

    # the swarm is held column-major, so each per-agent operation runs one
    # contiguous loop per axis
    if initial_state is not None:
        positions = np.array(initial_state.positions, dtype=float, order="F")
        modes = np.ascontiguousarray(initial_state.modes, dtype=np.uint8).copy()
        t0 = initial_state.time
        if positions.shape != (config.n_agents, domain.dim):
            raise ConfigError("initial state does not match agent count / dimension")
    else:
        positions = _initial_positions(config, domain)
        modes = np.ones(config.n_agents, dtype=np.uint8)
        t0 = 0.0

    n_steps = int(np.ceil(config.t_end / dt - 1e-9)) if config.t_end > 0 else 0
    snap_at = set(snapshot_steps(config.snapshot_times, dt, n_steps))
    switching = switching or bool((modes == 0).any())
    lo, hi, k = domain.lo, domain.hi, laws.k
    n, d = config.n_agents, domain.dim
    block = _sk.BLOCK

    def steps() -> Iterator[SwarmState]:
        # C order: standard_normal(out=) and random(out=) fill them in the
        # order standard_normal((n, d)) and random((n, 2)) would
        noise = np.empty((n, d))
        unif = np.empty((n, 2)) if switching else None
        scratch = np.empty((min(n, block), d), order="F") if switching else None
        if 0 in snap_at:
            yield SwarmState(t0, positions, modes)
        for step in range(1, n_steps + 1):
            rng = _stream(config.seed, step_offset + step)
            rng.standard_normal(out=noise)
            if switching:
                rng.random(out=unif)
            for start in range(0, n, block):
                rows = slice(start, start + block)
                pos = positions[rows]  # a view: the block is stepped in place
                D, drift = laws.motion(pos)
                if switching:
                    H = 0.0 if laws.H is None else laws.H(pos)
                    _sk.step_switching(pos, modes[rows], D, drift, H, k, dt,
                                       noise[rows], unif[rows], lo, hi,
                                       out=scratch[: pos.shape[0]])
                else:
                    _sk.step_active(pos, D, drift, dt, noise[rows], lo, hi, out=pos)
            if step in snap_at:
                yield SwarmState(t0 + step * dt, positions, modes)

    return steps()


def simulate(
    config: SimConfig,
    laws: ControlLaws,
    domain: Domain,
    initial_state: Optional[SwarmState] = None,
    step_offset: int = 0,
) -> list[SwarmState]:
    """Run the swarm and return snapshots at the requested times: C-ordered
    copies of what ``iter_snapshots`` yields (see there)."""
    return [
        SwarmState(s.time, s.positions.copy(), s.modes.copy())
        for s in iter_snapshots(config, laws, domain, initial_state, step_offset)
    ]


def histogram(state: Union[SwarmState, np.ndarray], grid: Grid) -> GridFunction:
    """Empirical density of the swarm on a grid: count / (n_agents * cell volume)."""
    positions = state.positions if isinstance(state, SwarmState) else np.asarray(state, float)
    if positions.ndim == 1:
        positions = positions.reshape(-1, 1)
    counts = _sk.bin_counts(positions, grid.domain.lo, grid.domain.hi, grid.shape)
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
