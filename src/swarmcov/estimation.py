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

The discrete model is the same conservative finite-volume scheme used by the
forward solver, so the gradient below is the exact transpose of the discrete
forward map (discretize-then-optimize), not a discretization of a continuous
adjoint.  The map is linear in the nodal values, so the solver assembles it
once, in one march of all basis functions side by side, and iterates on
matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import _pde_kernels as _pk
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
    "project",
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
    counts = np.empty(partition.n_cells)
    win_hi = partition.window[1]
    for w, (lo, hi) in enumerate(partition.cells):
        if hi >= win_hi - _WIDTH_TOL:
            counts[w] = np.count_nonzero((x >= lo) & (x <= hi))
        else:
            counts[w] = np.count_nonzero((x >= lo) & (x < hi))
    return counts


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
        if self.domain.dim != 1:
            raise ValueError("estimation runs on 1D domains")
        if self.grid_cells < 4:
            raise ValueError("need at least 4 grid cells")
        if self.basis_size < 2:
            raise ValueError("need at least 2 basis nodes")
        if self.d <= 0:
            raise ValueError("dispersion diffusivity must be positive")
        if self.lam < 0:
            raise ValueError("regularization weight must be nonnegative")
        if not self.T1 < self.T2:
            raise ValueError("need T1 < T2")
        t = self.obs.times
        if (t <= self.T1 + 1e-12).any() or (t > self.T2 + 1e-9).any():
            raise ValueError("observation times must lie in (T1, T2]")


@dataclass
class Estimate:
    """Inverse-solve output: nodal coefficients and the expanded density."""

    coefficients: np.ndarray
    u_hat: GridFunction
    objective_history: list[float]
    scale: Optional[float] = None


def uniform_times(T1: float, T2: float, count: int) -> np.ndarray:
    """count observation times T1 + k*(T2-T1)/count, k = 1..count."""
    step = (T2 - T1) / count
    return T1 + step * np.arange(1, count + 1)


# ---------------------------------------------------------------------------
# discrete forward model


class _Plan:
    """Precomputed pieces of the discrete forward map and of the objective
    for one problem; objective, adjoint_gradient and solve_inverse all
    evaluate through it."""

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
        self.w = np.full(problem.grid_cells, problem.d)
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

    def _marched(self, u: np.ndarray):
        """Yield the state u, a (cells,) vector or a (cells, B) stack of
        columns, marched through the dispersion window to each observation
        step in turn."""
        prev = 0
        for step in self.obs_steps:
            seg = int(step) - prev
            if seg > 0:
                u = _pk.march_diffusion_1d(u, self.w, self.h, self.dt, seg)
            prev = int(step)
            yield u

    def march(self, coeffs: np.ndarray) -> np.ndarray:
        """March the expansion through the dispersion window; returns the
        cell masses (K, W) at the observation steps."""
        masses = np.empty((len(self.obs_steps), self.overlap.shape[0]))
        for k, u in enumerate(self._marched(np.ascontiguousarray(self.expand(coeffs)))):
            masses[k] = self.overlap @ u
        return masses

    @cached_property
    def forward_map(self) -> np.ndarray:
        """Columns are the marched masses of each hat function, flattened
        over (time, cell), assembled in one batched march of all hat columns:
        march(c).ravel() equals this matrix times c up to rounding, since the
        march and the cell integrals are linear.  The cell integrals are taken
        column by column, so column m is bitwise equal to march(e_m).ravel()."""
        masses = np.empty(
            (len(self.obs_steps), self.overlap.shape[0], self.problem.basis_size)
        )
        for k, u in enumerate(self._marched(self.basis)):
            for m, column in enumerate(u.T.copy()):
                masses[k, :, m] = self.overlap @ column
        return masses.reshape(-1, self.problem.basis_size)

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
    return _Plan(problem).march(np.asarray(coeffs, dtype=float))


def objective(coeffs: np.ndarray, problem: EstimationProblem) -> float:
    """Width-weighted data term plus regularization:
    dt_obs * sum_k sum_w (m_kw - y_kw)^2 / |O_w|  +  lam * ||expansion||_L2^2,
    the discrete L2(O x (T1, T2)) misfit of the cell-mean densities."""
    plan = _Plan(problem)
    c = np.asarray(coeffs, dtype=float)
    return plan.value(c, plan.march(c).ravel())


def adjoint_gradient(coeffs: np.ndarray, problem: EstimationProblem) -> np.ndarray:
    """Exact gradient of the objective through the transpose of the assembled
    discrete forward map (one batched march of the basis_size hat functions)."""
    plan = _Plan(problem)
    c = np.asarray(coeffs, dtype=float)
    return plan.gradient(c, plan.forward_map @ c)


def project(coeffs: np.ndarray) -> np.ndarray:
    """Componentwise clip to the feasible set of nonnegative nodal values."""
    return np.maximum(np.asarray(coeffs, dtype=float), 0.0)


def solve_inverse(
    problem: EstimationProblem,
    init: Optional[np.ndarray] = None,
    max_iters: int = 500,
    tol: float = 1e-10,
    armijo: float = 1e-4,
) -> Estimate:
    """Projected gradient descent with Armijo backtracking (halving).

    The trial step length for each iteration is the Barzilai-Borwein estimate
    from the previous accepted step (a plain scalar; the method stays
    first-order), safeguarded by halving until the Armijo condition holds.
    Stops when the objective decrease per unit step length drops below tol,
    when no feasible descent step is found, or at max_iters.  The recorded
    objective history is strictly decreasing over accepted iterations.

    The forward map is assembled once (one march of all basis_size hat
    functions through the window); each iteration then evaluates objective
    and gradient by matrix-vector products, through the same plan as
    objective and adjoint_gradient.
    """
    plan = _Plan(problem)
    A = plan.forward_map
    if init is None:
        init = np.ones(problem.basis_size)
    c = project(init)
    j = plan.value(c, A @ c)
    if not np.isfinite(j):
        raise NumericError("objective is non-finite at iteration 0")
    history = [j]
    alpha = 1.0
    prev_c: Optional[np.ndarray] = None
    prev_grad: Optional[np.ndarray] = None
    for it in range(1, max_iters + 1):
        grad = plan.gradient(c, A @ c)
        if prev_c is not None:
            s = c - prev_c
            y = grad - prev_grad
            sy = float(s @ y)
            if sy > 1e-300:
                alpha = float(s @ s) / sy
        alpha = float(np.clip(alpha, 1e-18, 1e18))
        cand = None
        while alpha > 1e-18:
            trial = project(c - alpha * grad)
            move = trial - c
            move_sq = float(move @ move)
            if move_sq == 0.0:
                break
            j_trial = plan.value(trial, A @ trial)
            if not np.isfinite(j_trial):
                raise NumericError(f"objective is non-finite at iteration {it}")
            if j_trial <= j - (armijo / alpha) * move_sq:
                cand = (trial, j_trial, np.sqrt(move_sq))
                break
            alpha *= 0.5
        if cand is None:
            break
        prev_c, prev_grad = c, grad
        decrease = j - cand[1]
        c, j, move_norm = cand
        history.append(j)
        if decrease / max(move_norm, 1e-300) < tol:
            break
    u_hat = GridFunction(plan.grid, plan.expand(c))
    return Estimate(coefficients=c, u_hat=u_hat, objective_history=history)


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
    tol: float = 1e-12,
) -> ProtocolResult:
    """Coverage phase, dispersion phase, observation, and inverse solve.

    The dispersion phase uses one simulation step per observation interval:
    with a constant diffusion coefficient the reflected Gaussian increment
    samples the exact transition law, so no finer stepping is needed.  The
    returned estimate is normalized to unit mass.
    """
    domain = field.domain
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
    est = solve_inverse(problem, max_iters=max_iters, tol=tol)
    mass = est.u_hat.mass()
    if mass <= 0:
        raise NumericError("inverse solve collapsed to zero mass; nothing to normalize")
    est = Estimate(
        coefficients=est.coefficients / mass,
        u_hat=GridFunction(est.u_hat.grid, est.u_hat.values / mass),
        objective_history=est.objective_history,
    )
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
    with open(path, "w") as fh:
        fh.write("t,cell_lo,cell_hi,fraction\n")
        for k, t in enumerate(obs.times):
            for w, (lo, hi) in enumerate(obs.partition.cells):
                fh.write(f"{t:.17g},{lo:.17g},{hi:.17g},{obs.fractions[k, w]:.17g}\n")


def load_observations_csv(path, n_agents: int = 0) -> ObservationSeries:
    """Read the format written by save_observations_csv.

    The agent count is not stored in the file; pass it if downstream code
    needs it (the inverse solve does not).
    """
    raw = np.genfromtxt(path, delimiter=",", names=True)
    raw = np.atleast_1d(raw)
    expected = ("t", "cell_lo", "cell_hi", "fraction")
    if raw.dtype.names != expected:
        raise ValueError(f"expected header {','.join(expected)}")
    times = np.unique(raw["t"])
    first = raw[raw["t"] == times[0]]
    cells = tuple(zip(first["cell_lo"], first["cell_hi"]))
    partition = Partition((cells[0][0], cells[-1][1]), cells)
    fractions = np.full((len(times), len(cells)), np.nan)
    index = {t: k for k, t in enumerate(times)}
    lookup = {c: w for w, c in enumerate(cells)}
    for row in raw:
        fractions[index[row["t"]], lookup[(row["cell_lo"], row["cell_hi"])]] = row[
            "fraction"
        ]
    if np.isnan(fractions).any():
        raise ValueError("incomplete observation table")
    return ObservationSeries(times, fractions, n_agents, partition)


def save_estimate_csv(path, u_hat: GridFunction, scaled: Optional[GridFunction] = None) -> None:
    """Write rows x,u_hat[,F_scaled] at estimation-grid cell centers."""
    xs = u_hat.grid.centers(0)
    with open(path, "w") as fh:
        if scaled is None:
            fh.write("x,u_hat\n")
            for x, v in zip(xs, u_hat.values):
                fh.write(f"{x:.17g},{v:.17g}\n")
        else:
            fh.write("x,u_hat,F_scaled\n")
            for x, v, s in zip(xs, u_hat.values, scaled.values):
                fh.write(f"{x:.17g},{v:.17g},{s:.17g}\n")


def load_estimate_csv(path) -> tuple[GridFunction, Optional[GridFunction]]:
    """Read the format written by save_estimate_csv; returns (u_hat, scaled or None)."""
    raw = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    names = raw.dtype.names
    if names is None or names[:2] != ("x", "u_hat"):
        raise ValueError("expected header x,u_hat[,F_scaled]")
    xs = np.asarray(raw["x"], dtype=float)
    if len(xs) < 2:
        raise ValueError("need at least two rows")
    h = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), h, rtol=1e-9, atol=1e-12):
        raise ValueError("cell centers must be uniformly spaced")
    domain = Domain(((float(xs[0] - h / 2), float(xs[-1] + h / 2)),))
    grid = Grid(domain, (len(xs),))
    u_hat = GridFunction(grid, np.asarray(raw["u_hat"], dtype=float))
    scaled = None
    if "F_scaled" in names:
        scaled = GridFunction(grid, np.asarray(raw["F_scaled"], dtype=float))
    return u_hat, scaled
