"""Recovering a coverage field from occupancy counts in a small window.

Protocol: the swarm first settles into the field-proportional density under
its coverage law (convergence phase, ending at T1), then every agent switches
to a homogeneous random walk with known diffusivity d (dispersion phase,
(T1, T2]).  An observer records, at a schedule of times, the fraction of
agents inside each cell of a partition of a window O.  Because the dispersion
density obeys the heat equation, the pre-dispersion density u(T1), and with it
the field shape, is recovered by PDE-constrained least squares over
hat-function nodal values with a nonnegativity constraint.

The data term is the L2(O x (T1, T2)) misfit of the piecewise-constant
density: each cell's mass residual is divided by the cell width, since
(m - y)^2 / |O_w| equals the integral over O_w of the squared misfit of the
cell-mean densities m/|O_w| and y/|O_w|.  Observability of the heat equation
bounds the state by this norm whatever the cells, so with the weighting lam
means the same for every partition of O.

The discrete model is the explicit finite-volume step of the forward solver,
S = I + (dt d / h^2) T with T the zero-flux second difference.  S is
symmetric tridiagonal, so one eigendecomposition S = V diag(mu) V^T gives
S^s = V diag(mu^s) V^T at every observation step s, and the forward map, linear
in the nodal values, is assembled in closed form.  The gradient is the exact
transpose of that discrete map (discretize-then-optimize).  The objective is a
nonnegative linear least-squares problem, which solve_inverse hands to the
active-set NNLS method of Lawson and Hanson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import _pde_kernels as _pk
from ._csv import centers_to_axis, read_csv, write_csv
from .errors import DegenerateFitError, NumericError
from .fields import ScalarField, constant_diffusion_law, diffusion_coverage_law
from .grids import Domain, Grid, GridFunction
from .sde import SimConfig, SwarmState, UniformInit, simulate

__all__ = [
    "Partition",
    "ObservationSeries",
    "EstimationProblem",
    "Estimate",
    "ProtocolResult",
    "window_partition",
    "observe",
    "predict",
    "objective",
    "adjoint_gradient",
    "solve_inverse",
    "run_protocol",
    "rescale_with_known",
    "uniform_times",
    "save_observations_csv",
    "load_observations_csv",
    "save_estimate_csv",
    "load_estimate_csv",
]

_WIDTH_TOL = 1e-12
# observe sorts the swarm once per observation time and looks up every cell
# edge: 1e4 cells take 3.5 ms per time at 1e4 agents (2 cores)
_MAX_WINDOW_CELLS = 10_000


@dataclass(frozen=True)
class Partition:
    """Disjoint, sorted cells [lo, hi) covering part of a 1D window.

    The last cell whose upper edge coincides with the window's upper edge is
    treated as closed there, so boundary agents are counted.
    """

    window: tuple[float, float]
    cells: tuple[tuple[float, float], ...]

    def __post_init__(self):
        lo, hi = self.window
        if not lo < hi:
            raise ValueError("window must have positive width")
        if not self.cells:
            raise ValueError("partition needs at least one cell")
        prev = lo
        for c_lo, c_hi in self.cells:
            if c_hi - c_lo <= _WIDTH_TOL:
                raise ValueError("partition cells must have positive width")
            if abs(c_lo - prev) > _WIDTH_TOL:
                raise ValueError("partition cells must tile the window without gaps")
            prev = c_hi
        if abs(prev - hi) > _WIDTH_TOL:
            raise ValueError("partition cells must reach the window's upper edge")

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def widths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.cells])


def window_partition(window: tuple[float, float], divisor: int) -> Partition:
    """Cells of the global grid {k/divisor} clipped to the window.

    Example: window (0.7, 1) with divisor 10 gives [0.7,0.8), [0.8,0.9),
    [0.9,1.0]; divisor 100 gives the 30 width-0.01 cells.
    """
    lo, hi = window
    if divisor < 1:
        raise ValueError("divisor must be a positive integer")
    # exact: a float product overflows for a divisor past the float range
    if math.ceil(Fraction(hi) * divisor) - math.floor(Fraction(lo) * divisor) > _MAX_WINDOW_CELLS:
        raise ValueError(f"the divisor cuts the window into over {_MAX_WINDOW_CELLS} cells")
    cells = []
    k = int(np.floor(lo * divisor - 1e-9))
    while k / divisor < hi - _WIDTH_TOL:
        c_lo = max(k / divisor, lo)
        c_hi = min((k + 1) / divisor, hi)
        if c_hi - c_lo > _WIDTH_TOL:
            cells.append((c_lo, c_hi))
        k += 1
    return Partition((lo, hi), tuple(cells))


@dataclass(frozen=True)
class ObservationSeries:
    """Occupancy fractions: fractions[k, w] of all agents in cell w at times[k]."""

    times: np.ndarray
    fractions: np.ndarray
    n_agents: int
    partition: Partition

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        fractions = np.asarray(self.fractions, dtype=float)
        if fractions.shape != (len(times), self.partition.n_cells):
            raise ValueError("fractions must be (n_times, n_cells)")
        if len(times) and (np.diff(times) <= 0).any():
            raise ValueError("observation times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fractions", fractions)


def _count_in_cells(x: np.ndarray, partition: Partition) -> np.ndarray:
    lo, hi = np.array(partition.cells).T
    xs = np.sort(x)  # NaN sorts past every edge and is never counted
    closed = hi >= partition.window[1] - _WIDTH_TOL
    upper = np.where(closed, np.searchsorted(xs, hi, "right"), np.searchsorted(xs, hi))
    return (upper - np.searchsorted(xs, lo)).astype(float)


def observe(snapshots: Sequence[SwarmState], partition: Partition) -> ObservationSeries:
    """Bin each snapshot into the partition as fractions of the whole swarm."""
    if not snapshots:
        raise ValueError("no snapshots to observe")
    times = np.array([s.time for s in snapshots])
    n = snapshots[0].n_agents
    fractions = np.empty((len(snapshots), partition.n_cells))
    for k, snap in enumerate(snapshots):
        fractions[k] = _count_in_cells(snap.positions[:, 0], partition) / n
    return ObservationSeries(times, fractions, n, partition)


def _check_settings(grid_cells: int, basis_size: int, d: float, lam: float) -> None:
    if grid_cells < 4:
        raise ValueError("need at least 4 grid cells")
    if basis_size < 2:
        raise ValueError("need at least 2 basis nodes")
    if not d > 0:
        raise ValueError("dispersion diffusivity must be positive")
    if not lam >= 0:
        raise ValueError("regularization weight must be nonnegative")


def _check_domain(domain: Domain, window: tuple[float, float]) -> None:
    if domain.dim != 1:
        raise ValueError("estimation runs on 1D domains")
    (lo, hi) = domain.extents[0]
    if window[0] < lo or window[1] > hi:
        raise ValueError(
            f"window [{window[0]:g}, {window[1]:g}] reaches outside the domain [{lo:g}, {hi:g}]"
        )


@dataclass(frozen=True)
class EstimationProblem:
    """Inverse-problem setup for one dispersion window.

    grid_cells: solver resolution; basis_size: number of hat nodes spanning
    the domain; d: dispersion diffusivity (heat-equation coefficient); lam:
    regularization weight on the squared discrete L2 norm of the initial
    state.
    """

    domain: Domain
    grid_cells: int
    basis_size: int
    d: float
    lam: float
    T1: float
    T2: float
    obs: ObservationSeries

    def __post_init__(self):
        _check_domain(self.domain, self.obs.partition.window)
        _check_settings(self.grid_cells, self.basis_size, self.d, self.lam)
        if not self.T1 < self.T2:
            raise ValueError("need T1 < T2")
        t = self.obs.times
        if (t <= self.T1 + 1e-12).any() or (t > self.T2 + 1e-9).any():
            raise ValueError("observation times must lie in (T1, T2]")


@dataclass
class Estimate:
    """Inverse-solve output: nodal coefficients, the expanded density, the
    objective at the solution and the solution's KKT residual."""

    coefficients: np.ndarray
    u_hat: GridFunction
    objective_history: list[float]
    kkt_residual: float = float("nan")

    def normalized(self) -> Estimate:
        """The estimate scaled to unit mass, with the solve's record kept."""
        mass = self.u_hat.mass()
        if mass <= 0:
            raise NumericError("inverse solve collapsed to zero mass; nothing to normalize")
        return replace(
            self,
            coefficients=self.coefficients / mass,
            u_hat=GridFunction(self.u_hat.grid, self.u_hat.values / mass),
        )


def uniform_times(T1: float, T2: float, count: int) -> np.ndarray:
    """count observation times T1 + k*(T2-T1)/count, k = 1..count."""
    step = (T2 - T1) / count
    return T1 + step * np.arange(1, count + 1)


# ---------------------------------------------------------------------------
# discrete forward model


class _Plan:
    """Precomputed pieces of the discrete forward map and of the objective
    for one problem; predict, objective, adjoint_gradient and solve_inverse
    all evaluate through it."""

    def __init__(self, problem: EstimationProblem):
        self.problem = problem
        self.grid = Grid(problem.domain, (problem.grid_cells,))
        self.h = self.grid.spacing[0]
        dt_star = self.h * self.h / (2.0 * problem.d)
        self.dt = 0.9 * dt_star
        horizon = problem.T2 - problem.T1
        self.n_steps = int(np.ceil(horizon / self.dt - 1e-9))
        taus = problem.obs.times - problem.T1
        self.obs_steps = np.clip(
            np.rint(taus / self.dt).astype(int), 1, self.n_steps
        )
        self.dt_obs = horizon / len(problem.obs.times)
        self.basis = _hat_matrix(self.grid, problem.basis_size)
        self.overlap = _overlap_matrix(self.grid, problem.obs.partition)
        # data term weights of the (time, cell)-flattened mass residuals:
        # dt_obs / |O_w|, the L2(O x (T1, T2)) quadrature of the cell means
        self.data = problem.obs.fractions.ravel()
        self.weights = self.dt_obs * np.tile(
            1.0 / problem.obs.partition.widths, len(problem.obs.times)
        )
        self.reg = problem.lam * self.h

    def expand(self, coeffs: np.ndarray) -> np.ndarray:
        return self.basis @ coeffs

    @cached_property
    def forward_map(self) -> np.ndarray:
        """Cell masses of each hat function at each observation step,
        flattened over (time, cell): column m holds overlap @ S^s @ basis[:, m]
        for every observation step s, with S the explicit dispersion step.

        S = I + r T (r = dt d / h^2, T the zero-flux second difference) is
        symmetric tridiagonal, so S^s = V diag(mu^s) V^T from one
        eigendecomposition.  The powers are integer powers: with dt at 0.9 of
        the stability limit, mu reaches down to about -0.8."""
        r = self.dt * self.problem.d / (self.h * self.h)
        mu, V = _pk.diffusion_eigenpairs_1d(np.full(self.problem.grid_cells, r))
        left = self.overlap @ V
        right = V.T @ self.basis
        return np.vstack([left @ (mu[:, None] ** int(s) * right) for s in self.obs_steps])

    def value(self, coeffs: np.ndarray, masses: np.ndarray) -> float:
        """Objective at coeffs, given its flattened predicted masses."""
        resid = masses - self.data
        expanded = self.expand(coeffs)
        return float(resid**2 @ self.weights) + self.reg * float(expanded @ expanded)

    def gradient(self, coeffs: np.ndarray, masses: np.ndarray) -> np.ndarray:
        """Exact gradient of value: the transpose of the assembled discrete
        forward map applied to the weighted residuals, plus the mass-matrix
        action of the regularization."""
        resid = masses - self.data
        return 2.0 * (self.forward_map.T @ (self.weights * resid)) + (
            2.0 * self.reg
        ) * (self.basis.T @ self.expand(coeffs))


def _hat_matrix(grid: Grid, basis_size: int) -> np.ndarray:
    """Hat-function values at cell centers: column m is the hat at node m."""
    (lo, hi) = grid.domain.extents[0]
    nodes = np.linspace(lo, hi, basis_size)
    spacing = nodes[1] - nodes[0]
    centers = grid.centers(0)
    B = np.zeros((len(centers), basis_size))
    for m, node in enumerate(nodes):
        B[:, m] = np.clip(1.0 - np.abs(centers - node) / spacing, 0.0, None)
    return B


def _overlap_matrix(grid: Grid, partition: Partition) -> np.ndarray:
    """R[w, c] = length of (grid cell c) intersect (partition cell w)."""
    (lo, _) = grid.domain.extents[0]
    h = grid.spacing[0]
    n = grid.shape[0]
    edges_lo = lo + h * np.arange(n)
    edges_hi = edges_lo + h
    R = np.zeros((partition.n_cells, n))
    for w, (c_lo, c_hi) in enumerate(partition.cells):
        R[w] = np.clip(np.minimum(edges_hi, c_hi) - np.maximum(edges_lo, c_lo), 0.0, None)
    return R


def predict(coeffs: np.ndarray, problem: EstimationProblem) -> np.ndarray:
    """Model cell masses (n_times, n_cells): integral of the dispersed density
    over each partition cell at each observation time."""
    plan = _Plan(problem)
    masses = plan.forward_map @ np.asarray(coeffs, dtype=float)
    return masses.reshape(len(plan.obs_steps), -1)


def objective(coeffs: np.ndarray, problem: EstimationProblem) -> float:
    """Width-weighted data term plus regularization:
    dt_obs * sum_k sum_w (m_kw - y_kw)^2 / |O_w|  +  lam * ||expansion||_L2^2,
    the discrete L2(O x (T1, T2)) misfit of the cell-mean densities."""
    plan = _Plan(problem)
    c = np.asarray(coeffs, dtype=float)
    return plan.value(c, plan.forward_map @ c)


def adjoint_gradient(coeffs: np.ndarray, problem: EstimationProblem) -> np.ndarray:
    """Exact gradient of the objective through the transpose of the assembled
    discrete forward map."""
    plan = _Plan(problem)
    c = np.asarray(coeffs, dtype=float)
    return plan.gradient(c, plan.forward_map @ c)


def _kkt_residual(coeffs: np.ndarray, grad: np.ndarray) -> float:
    """Largest violation of the optimality conditions of min J(c) over c >= 0:
    |g_i| where c_i > 0 and max(-g_i, 0) where c_i = 0, for g the gradient."""
    return float(np.where(coeffs > 0, np.abs(grad), np.maximum(-grad, 0.0)).max())


def solve_inverse(problem: EstimationProblem, max_iters: int = 2000) -> Estimate:
    """Minimize the objective over nonnegative nodal values in one direct solve.

    The objective is the squared residual of the stacked linear system
    [sqrt(W) A; sqrt(lam h) B] c ~ [sqrt(W) y; 0], with A the assembled
    forward map, W the data weights, y the observed fractions and B the hat
    basis.  scipy.optimize.nnls (the Lawson-Hanson active-set method) solves
    it exactly; max_iters caps its iterations.  The history holds the one
    objective value at the solution, and the estimate records its KKT
    residual.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    # imported here: scipy takes most of the package's import time
    from scipy.optimize import nnls

    plan = _Plan(problem)
    A = plan.forward_map
    root_w = np.sqrt(plan.weights)
    M = np.vstack([root_w[:, None] * A, np.sqrt(plan.reg) * plan.basis])
    b = np.concatenate([root_w * plan.data, np.zeros(plan.basis.shape[0])])
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise NumericError("the least-squares system is non-finite")
    try:
        c, _ = nnls(M, b, maxiter=max_iters)
    except RuntimeError as exc:
        raise NumericError(f"NNLS did not converge in {max_iters} iterations") from exc
    masses = A @ c
    j = plan.value(c, masses)
    if not np.isfinite(j):
        raise NumericError("objective is non-finite at the solution")
    return Estimate(
        coefficients=c,
        u_hat=GridFunction(plan.grid, plan.expand(c)),
        objective_history=[j],
        kkt_residual=_kkt_residual(c, plan.gradient(c, masses)),
    )


# ---------------------------------------------------------------------------
# end-to-end protocol


@dataclass
class ProtocolResult:
    estimate: Estimate
    observations: ObservationSeries
    problem: EstimationProblem
    settled: SwarmState


def run_protocol(
    field: ScalarField,
    *,
    coverage_gain: float,
    d: float,
    T1: float,
    T2: float,
    n_agents: int,
    partition: Partition,
    seed: int,
    dt_coverage: float,
    n_obs: int = 20,
    lam: float = 0.1,
    basis_size: int = 10,
    grid_cells: int = 100,
    max_iters: int = 2000,
) -> ProtocolResult:
    """Coverage phase, dispersion phase, observation, and inverse solve.

    The dispersion phase uses one simulation step per observation interval:
    with a constant diffusion coefficient the reflected Gaussian increment
    samples the exact transition law, so no finer stepping is needed.  The
    returned estimate is normalized to unit mass.  n_obs, the window (inside
    the field's 1D domain) and the inverse-solve settings are checked before
    the swarm runs.
    """
    _check_settings(grid_cells, basis_size, d, lam)
    if n_obs < 1:
        raise ValueError("need at least one observation time")
    domain = field.domain
    _check_domain(domain, partition.window)
    laws_cov = diffusion_coverage_law(field, coverage_gain)
    cfg1 = SimConfig(
        n_agents=n_agents,
        dt=dt_coverage,
        t_end=T1,
        seed=seed,
        snapshot_times=(T1,),
        initial=UniformInit(),
    )
    settled = simulate(cfg1, laws_cov, domain)[-1]
    steps1 = int(np.ceil(T1 / dt_coverage - 1e-9))

    delta = (T2 - T1) / n_obs
    cfg2 = SimConfig(
        n_agents=n_agents,
        dt=delta,
        t_end=T2 - T1,
        seed=seed,
        snapshot_times=tuple(delta * k for k in range(1, n_obs + 1)),
    )
    snaps = simulate(
        cfg2,
        constant_diffusion_law(np.sqrt(d)),
        domain,
        initial_state=settled,
        step_offset=steps1,
    )
    observations = observe(snaps, partition)

    t1_actual = settled.time
    problem = EstimationProblem(
        domain=domain,
        grid_cells=grid_cells,
        basis_size=basis_size,
        d=d,
        lam=lam,
        T1=t1_actual,
        T2=t1_actual + n_obs * delta,
        obs=observations,
    )
    est = solve_inverse(problem, max_iters=max_iters).normalized()
    return ProtocolResult(
        estimate=est, observations=observations, problem=problem, settled=settled
    )


def rescale_with_known(
    u_hat: GridFunction,
    partition: Partition,
    known_values: np.ndarray,
    floor: float = 1e-8,
) -> tuple[GridFunction, float]:
    """Recover absolute field units from known values on the window cells.

    known_values[w] is the true field averaged over partition cell w; the
    scale is the mean of known/estimated over cells where the estimated
    average exceeds the floor.  Returns the rescaled density and the scale.
    """
    known = np.asarray(known_values, dtype=float)
    if known.shape != (partition.n_cells,):
        raise ValueError("need one known value per partition cell")
    R = _overlap_matrix(u_hat.grid, partition)
    averages = (R @ u_hat.values) / partition.widths
    usable = averages > floor
    if not usable.any():
        raise DegenerateFitError(
            "estimated density vanishes on the window; cannot rescale"
        )
    scale = float(np.mean(known[usable] / averages[usable]))
    return GridFunction(u_hat.grid, u_hat.values * scale), scale


# ---------------------------------------------------------------------------
# CSV interfaces


def save_observations_csv(path, obs: ObservationSeries) -> None:
    """Write rows t,cell_lo,cell_hi,fraction (one row per time and cell)."""
    lo, hi = np.array(obs.partition.cells).T
    k = len(obs.times)
    write_csv(path, "t,cell_lo,cell_hi,fraction", "%.17g,%.17g,%.17g,%.17g",
              np.repeat(obs.times, len(lo)), np.tile(lo, k), np.tile(hi, k), obs.fractions.ravel())


def load_observations_csv(path, n_agents: int = 0) -> ObservationSeries:
    """Read the format written by save_observations_csv.

    The agent count is not stored in the file; pass it if downstream code
    needs it (the inverse solve does not).
    """
    raw = read_csv(path, "t,cell_lo,cell_hi,fraction")
    if raw.size == 0:
        raise ValueError("no observation rows")
    for name in ("t", "cell_lo", "cell_hi"):
        if not np.isfinite(raw[name]).all():
            raise ValueError(f"observation column {name} must be finite numbers")
    times = np.unique(raw["t"])
    first = raw[raw["t"] == times[0]]
    cells = tuple(zip(first["cell_lo"], first["cell_hi"]))
    partition = Partition((cells[0][0], cells[-1][1]), cells)
    fractions = np.full((len(times), len(cells)), np.nan)
    index = {t: k for k, t in enumerate(times)}
    lookup = {c: w for w, c in enumerate(cells)}
    for row in raw:
        cell = (row["cell_lo"], row["cell_hi"])
        if cell not in lookup:
            raise ValueError(f"cell {cell} is not among the first time's cells")
        fractions[index[row["t"]], lookup[cell]] = row["fraction"]
    if np.isnan(fractions).any():
        raise ValueError("incomplete observation table")
    return ObservationSeries(times, fractions, n_agents, partition)


def save_estimate_csv(path, u_hat: GridFunction, scaled: Optional[GridFunction] = None) -> None:
    """Write rows x,u_hat[,F_scaled] at estimation-grid cell centers."""
    columns = [u_hat.grid.centers(0), u_hat.values] + ([] if scaled is None else [scaled.values])
    header = "x,u_hat" if scaled is None else "x,u_hat,F_scaled"
    write_csv(path, header, ",".join(["%.17g"] * len(columns)), *columns)


def load_estimate_csv(path) -> tuple[GridFunction, Optional[GridFunction]]:
    """Read the format written by save_estimate_csv; returns (u_hat, scaled or None)."""
    raw = read_csv(path, "x,u_hat", "x,u_hat,F_scaled")
    if len(raw) < 2 or (np.diff(raw["x"]) <= 0).any():
        raise ValueError("need at least two rows, with x increasing")
    lo, hi, n = centers_to_axis(raw["x"])
    grid = Grid(Domain(((lo, hi),)), (n,))
    u_hat = GridFunction(grid, np.asarray(raw["u_hat"], dtype=float))
    scaled = None
    if "F_scaled" in raw.dtype.names:
        scaled = GridFunction(grid, np.asarray(raw["F_scaled"], dtype=float))
    return u_hat, scaled
