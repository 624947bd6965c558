"""Mean-field solver: conservative explicit finite volumes on uniform grids.

The swarm's population density obeys an advection-diffusion-reaction system

    dy1/dt = lap(w*y1) - div(a*y1) - H*y1 + k*y2
    dy2/dt = H*y1 - k*y2

with zero total flux through the walls (w = D^2 is the squared diffusion
coefficient of the agent process, y1/y2 the moving/stopped densities).  Pure
diffusion is the special case a = H = 0, y2 = 0.  Fluxes live on cell faces,
so mass is conserved to round-off by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _pde_kernels as _pk
from .errors import DegenerateFitError
from .fields import ControlLaws
from .grids import Grid, GridFunction, snapshot_steps

__all__ = [
    "AdrCoefficients",
    "SolveReport",
    "cfl_max_dt",
    "step_diffusion",
    "step_adr",
    "solve",
    "steady_state",
    "decay_rate",
    "coefficients_from_laws",
]

_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class AdrCoefficients:
    """Cellwise coefficients: diffusion weight w > 0, optional drift per axis,
    optional stop rate H >= 0 with reactivation rate k >= 0."""

    w: GridFunction
    a: Optional[tuple[GridFunction, ...]] = None
    H: Optional[GridFunction] = None
    k: float = 0.0

    def __post_init__(self):
        shape = self.w.grid.shape
        if not np.isfinite(self.w.values).all():
            raise ValueError("diffusion weight w must be finite")
        if (self.w.values <= 0).any():
            raise ValueError("diffusion weight w must be strictly positive")
        if self.a is not None:
            if len(self.a) != self.w.grid.dim:
                raise ValueError("drift needs one component per axis")
            for comp in self.a:
                if comp.grid.shape != shape:
                    raise ValueError("drift components must share the w grid")
                if not np.isfinite(comp.values).all():
                    raise ValueError("drift must be finite")
        if self.H is not None:
            if self.H.grid.shape != shape:
                raise ValueError("H must share the w grid")
            if not np.isfinite(self.H.values).all():
                raise ValueError("stop rate H must be finite")
            if (self.H.values < 0).any():
                raise ValueError("stop rate H must be nonnegative")
        if not np.isfinite(self.k):
            raise ValueError("reactivation rate k must be finite")
        if self.k < 0:
            raise ValueError("reactivation rate k must be nonnegative")

    @property
    def reactive(self) -> bool:
        return self.H is not None or self.k > 0


@dataclass
class SolveReport:
    """Snapshots plus bookkeeping from one explicit solve."""

    times: list[float]
    active: list[GridFunction]
    passive: Optional[list[GridFunction]]
    dt: float
    n_steps: int
    mass_drift: float

    def totals(self) -> list[GridFunction]:
        if self.passive is None:
            return self.active
        return [
            GridFunction(a.grid, a.values + p.values)
            for a, p in zip(self.active, self.passive)
        ]

    def pairs(self) -> list[tuple[float, GridFunction]]:
        return list(zip(self.times, self.totals()))

    @property
    def final(self) -> GridFunction:
        return self.totals()[-1]


def cfl_max_dt(w: GridFunction, a: Optional[Sequence[GridFunction]] = None) -> float:
    """Largest stable explicit step: 1 / (sum_ax 2*max(w)/h^2 + sum_ax max|a|/h)."""
    rate = 0.0
    wmax = float(w.values.max())
    for ax, h in enumerate(w.grid.spacing):
        rate += 2.0 * wmax / h**2
        if a is not None:
            rate += float(np.abs(a[ax].values).max()) / h
    return 1.0 / rate


def _max_stable_dt(coeffs: AdrCoefficients) -> float:
    """Combined diffusion/advection/reaction positivity bound."""
    limit = cfl_max_dt(coeffs.w, coeffs.a)
    if limit == 0:
        raise ValueError("diffusion weight or drift too large: the stable time step is 0")
    rate = 1.0 / limit
    if coeffs.H is not None:
        rate += float(coeffs.H.values.max())
    dt = 1.0 / rate
    if coeffs.k > 0:
        dt = min(dt, 1.0 / coeffs.k)
    return dt


def _terms(coeffs: AdrCoefficients):
    """The march's (w, a, H, k): a is None without drift, H is 0 without a stop rate."""
    a = None if coeffs.a is None else tuple(c.values for c in coeffs.a)
    H = 0.0 if coeffs.H is None else coeffs.H.values
    return coeffs.w.values, a, H, coeffs.k


def _diffusion_powers_1d(y0, w, h, dt, steps):
    """S^s y0 for each s in steps, S the pure-diffusion step of the march, from
    one eigendecomposition of its symmetric form (rows of the result).

    The conserved mode v0 = w^-1/2 / |w^-1/2| of the symmetric form has
    eigenvalue exactly 1, which eigh returns only to round-off; raised to a
    power of 10^5 or more that error would show as mass drift.  So v0's
    coefficient alpha is carried unchanged, only the other eigenpairs are
    raised to the power, on the data less alpha v0, and v0 is projected out
    of what they give."""
    mu, V = _pk.diffusion_eigenpairs_1d(dt * w / (h * h))
    root = np.sqrt(w)
    v0 = 1.0 / root
    v0 /= np.linalg.norm(v0)
    z = root * y0
    alpha = v0 @ z
    # mu ascends: the conserved mode is the last eigenpair
    mu, V = mu[:-1], V[:, :-1]
    u = (mu ** np.asarray(steps, dtype=np.int64)[:, None] * (V.T @ (z - alpha * v0))) @ V.T
    u -= np.outer(u @ v0, v0)
    return (u + alpha * v0) / root


def step_diffusion(y: GridFunction, w: GridFunction, dt: float) -> GridFunction:
    """One explicit step of dy/dt = lap(w*y) with zero-flux walls."""
    if y.grid.shape != w.grid.shape:
        raise ValueError("y and w must share a grid")
    limit = cfl_max_dt(w)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:g} violates the stability bound {limit:g}")
    vals, _ = _pk.march(y.values, None, w.values, None, 0.0, 0.0, y.grid.spacing, dt, 1)
    return GridFunction(y.grid, vals)


def step_adr(
    y1: GridFunction, y2: GridFunction, coeffs: AdrCoefficients, dt: float
) -> tuple[GridFunction, GridFunction]:
    """One explicit step of the two-state system (fluxes and rates at pre-step values)."""
    grid = y1.grid
    if grid.shape != coeffs.w.grid.shape or y2.grid.shape != grid.shape:
        raise ValueError("states and coefficients must share a grid")
    limit = _max_stable_dt(coeffs)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:g} violates the stability bound {limit:g}")
    v1, v2 = _pk.march(y1.values, y2.values, *_terms(coeffs), grid.spacing, dt, 1)
    return GridFunction(grid, v1), GridFunction(grid, v2)


def solve(
    y0: GridFunction,
    coeffs: AdrCoefficients,
    t_end: float,
    snapshot_times: Sequence[float] = (),
    y2_init: Optional[GridFunction] = None,
    safety: float = 0.9,
) -> SolveReport:
    """Advance to t_end with dt = safety * (stability bound); snapshot at the
    nearest step time >= each requested time (t_end is always included).

    1D pure diffusion (no drift, H or k, no y2_init) takes each snapshot in
    closed form, as the power of the explicit step that marching would
    apply; every other case is marched step by step."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if not 0 < safety < 1:
        raise ValueError("safety factor must sit in (0, 1)")
    for t in snapshot_times:
        if not 0 <= t <= t_end:
            raise ValueError(f"snapshot time {t} outside [0, t_end]")
    grid = y0.grid
    if grid.shape != coeffs.w.grid.shape:
        raise ValueError("y0 and coefficients must share a grid")

    dt = safety * _max_stable_dt(coeffs)
    n_steps = np.ceil(t_end / dt - 1e-9)
    if not n_steps < 2.0**63:
        raise ValueError(f"t_end / dt = {t_end / dt:g} steps: the step count does not fit int64")
    n_steps = int(n_steps)
    snap_idx = snapshot_steps(tuple(snapshot_times) + (t_end,), dt, n_steps)

    keep_passive = coeffs.reactive or y2_init is not None
    v1 = np.ascontiguousarray(y0.values)
    v2 = None
    if keep_passive:
        v2 = np.ascontiguousarray(y2_init.values) if y2_init is not None else np.zeros(grid.shape)

    cellvol = grid.cell_volume

    def mass(u1: np.ndarray, u2: Optional[np.ndarray]) -> float:
        return float((u1.sum() if u2 is None else u1.sum() + u2.sum()) * cellvol)

    mass0 = mass(v1, v2)
    drift = 0.0

    times: list[float] = []
    active: list[GridFunction] = []
    passive: list[GridFunction] = []

    def record(step: int, u1: np.ndarray, u2: Optional[np.ndarray]):
        nonlocal drift
        times.append(step * dt)
        active.append(GridFunction(grid, u1.copy()))
        if u2 is not None:
            passive.append(GridFunction(grid, u2.copy()))
        drift = max(drift, abs(mass(u1, u2) - mass0) / abs(mass0)) if mass0 != 0 else drift

    w, a, H, k = _terms(coeffs)
    if grid.dim == 1 and a is None and v2 is None:
        for step, u1 in zip(snap_idx, _diffusion_powers_1d(v1, w, grid.spacing[0], dt, snap_idx)):
            record(step, u1, None)
    else:
        prev = 0
        for target in snap_idx:
            seg = target - prev
            if seg > 0:
                v1, v2 = _pk.march(v1, v2, w, a, H, k, grid.spacing, dt, seg)
            prev = target
            record(target, v1, v2)

    return SolveReport(
        times=times,
        active=active,
        passive=passive if keep_passive else None,
        dt=dt,
        n_steps=n_steps,
        mass_drift=drift,
    )


def steady_state(w: GridFunction) -> GridFunction:
    """Stationary density of dy/dt = lap(w*y): proportional to 1/w, unit mass."""
    inv = 1.0 / w.values
    z = inv.sum() * w.grid.cell_volume
    return GridFunction(w.grid, inv / z)


def decay_rate(
    snapshots: Sequence[tuple[float, GridFunction]], target: GridFunction
) -> tuple[float, float]:
    """Exponential approach rate to a target state.

    Least-squares slope of log ||y(t) - target||_2 (discrete L2) against t,
    over snapshots whose norm exceeds 1e-12.  Returns (rate, r_squared) with
    rate = -slope.
    """
    if len(snapshots) < 4:
        raise ValueError("decay fit needs at least 4 snapshots")
    cellvol = target.grid.cell_volume
    ts, logs = [], []
    for t, gf in snapshots:
        if gf.grid.shape != target.grid.shape:
            raise ValueError("snapshot grid does not match target grid")
        norm = float(np.sqrt(((gf.values - target.values) ** 2).sum() * cellvol))
        if norm > _NORM_FLOOR:
            ts.append(t)
            logs.append(np.log(norm))
    if len(ts) < 2:
        raise DegenerateFitError("all residual norms at or below the fit floor")
    t = np.asarray(ts)
    y = np.asarray(logs)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise DegenerateFitError("residual norms show no variation")
    r2 = 1.0 - float((resid**2).sum()) / ss_tot
    return float(-slope), float(r2)


def coefficients_from_laws(laws: ControlLaws, grid: Grid) -> AdrCoefficients:
    """Sample control laws at cell centers: w = D^2, drift a, stop rate H."""
    pts = grid.center_points()
    D, av = laws.motion(pts)
    w = GridFunction(grid, (D**2).reshape(grid.shape))
    a = None
    if av is not None:
        a = tuple(
            GridFunction(grid, av[:, ax].reshape(grid.shape)) for ax in range(grid.dim)
        )
    H = None
    if laws.H is not None:
        H = GridFunction(grid, laws.H(pts).reshape(grid.shape))
    return AdrCoefficients(w=w, a=a, H=H, k=laws.k)
