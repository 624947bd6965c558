"""Finite-volume solver: conservation, steady states, decay rates."""

import numpy as np
import pytest

from swarmcov import _pde_kernels as pk
from swarmcov import (
    AdrCoefficients,
    DegenerateFitError,
    Domain,
    Grid,
    GridFunction,
    cfl_max_dt,
    coefficients_from_laws,
    decay_rate,
    diffusion_coverage_law,
    sine_field,
    solve,
    steady_state,
    step_adr,
    step_diffusion,
    tv_distance,
)

UNIT = Domain.unit_interval()
SQUARE = Domain(((0.0, 1.0), (0.0, 1.0)))


def _gf(grid, values):
    return GridFunction(grid, np.asarray(values, dtype=float))


def _mass(gf):
    return gf.values.sum() * gf.grid.cell_volume


# ---------------------------------------------------------------------------
# single steps


def test_step_uniform_is_fixed_point():
    grid = Grid(UNIT, (8,))
    y = _gf(grid, np.ones(8))
    w = _gf(grid, np.ones(8))
    out = step_diffusion(y, w, 1e-3)
    assert np.allclose(out.values, 1.0, atol=1e-15)


def test_step_two_cell_hand_value():
    grid = Grid(UNIT, (2,))
    y = _gf(grid, [2.0, 0.0])
    w = _gf(grid, [1.0, 1.0])
    out = step_diffusion(y, w, 0.01)
    assert np.allclose(out.values, [1.92, 0.08], atol=1e-15)


def test_step_conserves_mass_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        grid = Grid(UNIT, (n,))
        y = _gf(grid, rng.random(n))
        w = _gf(grid, rng.random(n) + 0.1)
        dt = 0.9 * cfl_max_dt(w)
        out = step_diffusion(y, w, dt)
        assert abs(_mass(out) - _mass(y)) <= 1e-13 * max(_mass(y), 1.0)


def test_step_rejects_cfl_violation():
    grid = Grid(UNIT, (10,))
    y = _gf(grid, np.ones(10))
    w = _gf(grid, np.ones(10))
    with pytest.raises(ValueError):
        step_diffusion(y, w, 2 * cfl_max_dt(w))


def test_step_positivity_at_stability_bound():
    rng = np.random.default_rng(8)
    grid = Grid(UNIT, (30,))
    y = _gf(grid, rng.random(30))
    w = _gf(grid, rng.random(30) + 0.2)
    out = step_diffusion(y, w, cfl_max_dt(w))
    assert out.values.min() >= -1e-15


def test_cfl_examples():
    grid = Grid(UNIT, (10,))  # h = 0.1
    w = _gf(grid, np.ones(10))
    assert cfl_max_dt(w) == pytest.approx(0.005, rel=1e-12)
    grid2 = Grid(SQUARE, (10, 10))
    w2 = GridFunction(grid2, np.ones((10, 10)))
    assert cfl_max_dt(w2) == pytest.approx(0.0025, rel=1e-12)
    assert cfl_max_dt(_gf(grid, 2 * np.ones(10))) == pytest.approx(0.0025, rel=1e-12)


def test_step_adr_reduces_to_diffusion_when_unreactive():
    grid = Grid(UNIT, (16,))
    rng = np.random.default_rng(1)
    y1 = _gf(grid, rng.random(16))
    y2 = _gf(grid, np.zeros(16))
    w = _gf(grid, rng.random(16) + 0.5)
    coeffs = AdrCoefficients(w=w, a=None, H=None, k=0.7)
    dt = 0.5 * cfl_max_dt(w)
    o1, o2 = step_adr(y1, y2, coeffs, dt)
    ref = step_diffusion(y1, w, dt)
    assert np.array_equal(o1.values, ref.values)
    assert np.array_equal(o2.values, np.zeros(16))


def test_step_adr_reaction_pair_arithmetic():
    # w ~ 0, H = 2, k = 1, dt = 0.1: y1 1 -> 0.8, y2 0 -> 0.2
    grid = Grid(UNIT, (1,))
    w = _gf(grid, [1e-12])
    coeffs = AdrCoefficients(w=w, a=None, H=_gf(grid, [2.0]), k=1.0)
    y1, y2 = step_adr(_gf(grid, [1.0]), _gf(grid, [0.0]), coeffs, 0.1)
    assert y1.values[0] == pytest.approx(0.8, abs=1e-12)
    assert y2.values[0] == pytest.approx(0.2, abs=1e-12)


def test_step_adr_total_mass_conserved_random():
    # every combination of drift and reaction, in 1D and 2D
    rng = np.random.default_rng(5)
    for domain in (UNIT, SQUARE):
        for with_drift, with_reaction in ((True, True), (True, False), (False, True)):
            for _ in range(25):
                shape = tuple(int(n) for n in rng.integers(4, 30, size=domain.dim))
                grid = Grid(domain, shape)
                y1 = _gf(grid, rng.random(shape))
                y2 = _gf(grid, rng.random(shape))
                w = _gf(grid, rng.random(shape) + 0.1)
                a = tuple(_gf(grid, rng.standard_normal(shape)) for _ in shape) if with_drift else None
                H = _gf(grid, rng.random(shape)) if with_reaction else None
                coeffs = AdrCoefficients(w=w, a=a, H=H, k=0.5 if with_reaction else 0.0)
                dt = 0.45 * cfl_max_dt(w, a)
                o1, o2 = step_adr(y1, y2, coeffs, dt)
                before = _mass(y1) + _mass(y2)
                after = _mass(o1) + _mass(o2)
                assert abs(after - before) <= 1e-13 * max(before, 1.0)


# ---------------------------------------------------------------------------
# full solves


def _constant_coeffs(grid, w0=1.0):
    return AdrCoefficients(w=GridFunction(grid, np.full(grid.shape, w0)), a=None, H=None, k=0.0)


def test_solve_uniform_stays_uniform():
    grid = Grid(UNIT, (32,))
    y0 = _gf(grid, np.ones(32))
    rep = solve(y0, _constant_coeffs(grid), 0.5, snapshot_times=(0.1, 0.5))
    for snap in rep.active:
        assert np.allclose(snap.values, 1.0, atol=1e-12)


def test_solve_coverage_identity_keeps_initial_state():
    # w = c^2/F and y0 = F/int(F): w*y0 is constant so nothing moves
    field = sine_field()
    laws = diffusion_coverage_law(field, 0.3)
    grid = Grid(UNIT, (64,))
    coeffs = coefficients_from_laws(laws, grid)
    vals = field.eval(grid.centers(0)[:, None])
    y0 = _gf(grid, vals / (vals.sum() * grid.cell_volume))
    rep = solve(y0, coeffs, 0.2, snapshot_times=(0.2,))
    assert np.abs(rep.active[-1].values - y0.values).max() <= 1e-10 * y0.values.max()


def test_solve_mass_drift_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(8, 50))
        grid = Grid(UNIT, (n,))
        y0 = _gf(grid, rng.random(n) + 0.01)
        w = _gf(grid, rng.random(n) * 2 + 0.05)
        coeffs = AdrCoefficients(w=w, a=None, H=None, k=0.0)
        rep = solve(y0, coeffs, 60 * cfl_max_dt(w))
        assert rep.mass_drift <= 1e-12


def test_solve_snapshot_times_and_dt_rule():
    grid = Grid(UNIT, (20,))
    y0 = _gf(grid, np.ones(20))
    coeffs = _constant_coeffs(grid, w0=2.0)
    rep = solve(y0, coeffs, 0.01, snapshot_times=(0.0, 0.005, 0.01))
    assert rep.dt == pytest.approx(0.9 * cfl_max_dt(coeffs.w), rel=1e-12)
    assert len(rep.times) == 3
    assert rep.times[0] == 0.0
    # snapshots land on the nearest step time at or after the request
    assert rep.times[1] >= 0.005 - 1e-12
    assert rep.times[2] == pytest.approx(0.01, abs=rep.dt)


def test_transpose_ordering_invariance():
    # solving on the transposed 2D data gives the transposed solution
    rng = np.random.default_rng(21)
    grid = Grid(SQUARE, (12, 9))
    gridT = Grid(SQUARE, (9, 12))
    y = rng.random((12, 9)) + 0.1
    w = rng.random((12, 9)) + 0.3
    rep = solve(GridFunction(grid, y), AdrCoefficients(GridFunction(grid, w), None, None, 0.0), 0.002)
    repT = solve(GridFunction(gridT, y.T), AdrCoefficients(GridFunction(gridT, w.T), None, None, 0.0), 0.002)
    assert np.array_equal(rep.active[-1].values, repT.active[-1].values.T)
    # with drift, the transposed solve takes the drift components swapped
    ax, ay = rng.standard_normal((12, 9)), rng.standard_normal((12, 9))
    drift = (GridFunction(grid, ax), GridFunction(grid, ay))
    driftT = (GridFunction(gridT, ay.T), GridFunction(gridT, ax.T))
    rep = solve(GridFunction(grid, y), AdrCoefficients(GridFunction(grid, w), drift), 0.002)
    repT = solve(GridFunction(gridT, y.T), AdrCoefficients(GridFunction(gridT, w.T), driftT), 0.002)
    assert rep.n_steps > 1
    assert np.array_equal(rep.active[-1].values, repT.active[-1].values.T)


# ---------------------------------------------------------------------------
# steady state and decay


def test_steady_state_examples():
    grid = Grid(UNIT, (2,))
    pi = steady_state(_gf(grid, [1.0, 4.0]))
    assert np.allclose(pi.values, [1.6, 0.4], atol=1e-14)
    assert _mass(pi) == pytest.approx(1.0, rel=1e-14)
    flat = steady_state(_gf(grid, [3.0, 3.0]))
    assert np.allclose(flat.values, [1.0, 1.0])


def test_steady_state_is_discrete_fixed_point():
    rng = np.random.default_rng(4)
    grid = Grid(UNIT, (40,))
    w = _gf(grid, rng.random(40) + 0.2)
    pi = steady_state(w)
    out = step_diffusion(pi, w, 0.9 * cfl_max_dt(w))
    assert np.abs(out.values - pi.values).max() <= 1e-12 * pi.values.max()


def test_steady_state_matches_normalized_field():
    field = sine_field()
    laws = diffusion_coverage_law(field, 0.4)
    grid = Grid(UNIT, (128,))
    coeffs = coefficients_from_laws(laws, grid)
    pi = steady_state(coeffs.w)
    vals = field.eval(grid.centers(0)[:, None])
    ref = _gf(grid, vals / (vals.sum() * grid.cell_volume))
    assert tv_distance(pi, ref) <= 1e-12


@pytest.mark.parametrize("c2", [0.05, 0.2])
def test_drift_law_stationary_vector_matches_field(c2):
    """The stationary vector of the upwind generator the drift law gives is F, to O(h).

    In 1D it has zero flux on every face, (w[i+1]*y[i+1] - w[i]*y[i]) / h =
    af*y(upwind) with af the face drift, which fixes it by a recursion.
    """
    field = sine_field()
    errors = []
    for n in (100, 200):
        grid = Grid(UNIT, (n,))
        coeffs = coefficients_from_laws(diffusion_coverage_law(field, 0.1, c2), grid)
        w, h = coeffs.w.values, grid.spacing[0]
        af = 0.5 * (coeffs.a[0].values[:-1] + coeffs.a[0].values[1:])
        ratio = np.where(af > 0.0, (w[:-1] + h * af) / w[1:], w[:-1] / (w[1:] - h * af))
        y = np.concatenate([[1.0], np.cumprod(ratio)])
        pi = _gf(grid, y / (y.sum() * grid.cell_volume))
        zero = _gf(grid, np.zeros(n))
        stepped, _ = step_adr(pi, zero, coeffs, 0.9 * cfl_max_dt(coeffs.w, coeffs.a))
        assert np.abs(stepped.values - pi.values).max() <= 1e-12 * pi.values.max()
        vals = field.eval(grid.center_points())
        errors.append(tv_distance(pi, _gf(grid, vals / (vals.sum() * grid.cell_volume))))
    assert errors[0] <= 0.3 * (1.0 / 100)
    assert errors[1] <= 0.6 * errors[0]


def test_decay_rate_analytic_neumann_mode():
    # constant w: y0 = 1 + eps*cos(pi x) decays at rate w*pi^2
    w0 = 0.7
    grid = Grid(UNIT, (200,))
    xs = grid.centers(0)
    y0 = _gf(grid, 1.0 + 0.25 * np.cos(np.pi * xs))
    coeffs = _constant_coeffs(grid, w0)
    t_end = 0.5
    rep = solve(y0, coeffs, t_end, snapshot_times=np.linspace(0.02, t_end, 12))
    target = _gf(grid, np.ones(200))
    rate, r2 = decay_rate(list(zip(rep.times, rep.active)), target)
    assert rate == pytest.approx(w0 * np.pi**2, rel=0.05)
    assert r2 >= 0.99


def test_decay_rate_grid_refinement_stable():
    w0 = 1.0
    rates = []
    for n in (100, 200):
        grid = Grid(UNIT, (n,))
        xs = grid.centers(0)
        y0 = _gf(grid, 1.0 + 0.25 * np.cos(np.pi * xs))
        rep = solve(y0, _constant_coeffs(grid, w0), 0.4, snapshot_times=np.linspace(0.02, 0.4, 10))
        target = _gf(grid, np.ones(n))
        rate, _ = decay_rate(list(zip(rep.times, rep.active)), target)
        rates.append(rate)
    assert abs(rates[1] - rates[0]) / rates[0] <= 0.02


def test_decay_rate_degenerate_on_converged_input():
    grid = Grid(UNIT, (16,))
    target = _gf(grid, np.ones(16))
    snaps = [(0.1 * k, target) for k in range(5)]
    with pytest.raises(DegenerateFitError):
        decay_rate(snaps, target)


def test_decay_rate_needs_four_snapshots():
    grid = Grid(UNIT, (8,))
    target = _gf(grid, np.ones(8))
    y = _gf(grid, 1 + np.linspace(0, 0.1, 8))
    with pytest.raises(ValueError):
        decay_rate([(0.0, y), (0.1, y), (0.2, y)], target)


def test_long_horizon_reaches_one_over_w(tmp_path):
    field = sine_field()
    laws = diffusion_coverage_law(field, 0.5)
    grid = Grid(UNIT, (200,))
    coeffs = coefficients_from_laws(laws, grid)
    xs = grid.centers(0)
    bump = np.exp(-0.5 * ((xs - 0.3) / 0.02) ** 2)
    y0 = _gf(grid, bump / (bump.sum() * grid.cell_volume))
    rep = solve(y0, coeffs, 4.0, snapshot_times=np.linspace(0.2, 4.0, 11))
    target = steady_state(coeffs.w)
    assert tv_distance(rep.active[-1], target) <= 1e-4
    rate, r2 = decay_rate(list(zip(rep.times, rep.active)), target)
    assert r2 >= 0.99
    assert rep.mass_drift <= 1e-12


# ---------------------------------------------------------------------------
# the march kernel


def test_march_1d_keeps_its_input_and_composes_bitwise():
    # marching 15 then 25 steps is marching 40 (the march the closed-form
    # solve is checked against goes segment by segment, from snapshot to
    # snapshot), and the input is not marched in place
    rng = np.random.default_rng(6)
    y = rng.random(20)
    w = rng.random(20) + 0.5
    h = 1.0 / 20
    dt = 0.9 * h * h / (2.0 * w.max())
    y0 = y.copy()
    whole, _ = pk.march(y, None, w, None, 0.0, 0.0, (h,), dt, 40)
    part, _ = pk.march(y, None, w, None, 0.0, 0.0, (h,), dt, 15)
    split, _ = pk.march(part, None, w, None, 0.0, 0.0, (h,), dt, 25)
    assert np.array_equal(whole, split)
    assert np.array_equal(y, y0)
