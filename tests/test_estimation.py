"""Inverse problem: observation binning, forward model, adjoint, solver."""

import numpy as np
import pytest

from swarmcov import (
    DegenerateFitError,
    Domain,
    EstimationProblem,
    Grid,
    GridFunction,
    NumericError,
    ObservationSeries,
    Partition,
    SwarmState,
    adjoint_gradient,
    load_estimate_csv,
    load_observations_csv,
    objective,
    observe,
    predict,
    rescale_with_known,
    run_protocol,
    save_estimate_csv,
    save_observations_csv,
    sine_field,
    solve_inverse,
    tv_distance,
    uniform_times,
    window_partition,
)
from swarmcov import estimation as est
from swarmcov import sde

UNIT = Domain.unit_interval()


def _snap(t, xs):
    pos = np.asarray(xs, dtype=float)[:, None]
    return SwarmState(time=t, positions=pos, modes=np.ones(len(xs), dtype=np.uint8))


def _problem(obs, *, grid_cells=50, basis_size=10, d=0.05, lam=0.0, T1=1.0, T2=2.0):
    return EstimationProblem(UNIT, grid_cells, basis_size, d, lam, T1, T2, obs)


def _series(times, partition, values=None, n_agents=1000):
    times = np.asarray(times, dtype=float)
    if values is None:
        values = np.zeros((len(times), partition.n_cells))
    return ObservationSeries(times, np.asarray(values, dtype=float), n_agents, partition)


def _synthetic(c_true, *, window=(0.0, 1.0), divisor=10, lam=1e-6, d=0.05,
               T1=1.0, T2=2.0, K=20, grid_cells=50, basis_size=None):
    """Problem whose data come from predict() at c_true (no noise)."""
    part = window_partition(window, divisor)
    times = uniform_times(T1, T2, K)
    M = basis_size or len(c_true)
    shell = _problem(_series(times, part), grid_cells=grid_cells, basis_size=M,
                     d=d, lam=lam, T1=T1, T2=T2)
    data = predict(np.asarray(c_true, dtype=float), shell)
    obs = _series(times, part, values=data)
    return _problem(obs, grid_cells=grid_cells, basis_size=M, d=d, lam=lam, T1=T1, T2=T2)


# ---------------------------------------------------------------------------
# partitions and binning


def test_window_partition_cell_counts():
    coarse = window_partition((0.7, 1.0), 10)
    fine = window_partition((0.7, 1.0), 100)
    assert coarse.n_cells == 3
    assert fine.n_cells == 30
    assert coarse.cells[0] == (0.7, 0.8)
    assert coarse.cells[-1][1] == pytest.approx(1.0)


def test_window_partition_clips_first_cell():
    part = window_partition((0.75, 1.0), 10)
    assert part.n_cells == 3
    assert part.cells[0] == (0.75, 0.8)


def test_partition_must_tile_window():
    with pytest.raises(ValueError):
        Partition((0.0, 1.0), ((0.0, 0.4), (0.5, 1.0)))  # gap
    with pytest.raises(ValueError):
        Partition((0.0, 1.0), ((0.0, 0.4), (0.4, 0.9)))  # short of the edge


def test_observe_counts_fraction_of_all_agents():
    part = window_partition((0.7, 1.0), 10)
    series = observe([_snap(1.5, [0.72, 0.75, 0.95, 0.5])], part)
    assert series.fractions.shape == (1, 3)
    assert series.fractions[0, 0] == pytest.approx(0.5)  # two of four in [0.7, 0.8)
    assert series.fractions[0, 1] == 0.0
    assert series.fractions[0, 2] == pytest.approx(0.25)
    assert series.n_agents == 4


def test_observe_all_outside_window():
    part = window_partition((0.7, 1.0), 10)
    series = observe([_snap(1.0, [0.1, 0.2, 0.3])], part)
    assert (series.fractions == 0).all()


def test_observe_last_cell_closed():
    part = window_partition((0.7, 1.0), 10)
    series = observe([_snap(1.0, [1.0])], part)
    assert series.fractions[0, 2] == pytest.approx(1.0)


def _count_per_cell(x, partition):
    # the per-cell count _count_in_cells replaces: two passes over the swarm
    # for each cell
    counts = np.empty(partition.n_cells)
    win_hi = partition.window[1]
    for w, (lo, hi) in enumerate(partition.cells):
        if hi >= win_hi - est._WIDTH_TOL:
            counts[w] = np.count_nonzero((x >= lo) & (x <= hi))
        else:
            counts[w] = np.count_nonzero((x >= lo) & (x < hi))
    return counts


def test_count_in_cells_matches_the_per_cell_count(tmp_path):
    # a loaded table whose neighbouring cells meet within _WIDTH_TOL, with
    # overlaps and gaps of a few 1e-13, beside partitions made by the code
    edges = [(0.3, 0.4 + 4e-13), (0.4 - 3e-13, 0.55), (0.55 + 5e-13, 0.8), (0.8, 1.0 - 2e-13)]
    rows = ["t,cell_lo,cell_hi,fraction"] + [f"1.5,{lo!r},{hi!r},0.1" for lo, hi in edges]
    (tmp_path / "obs.csv").write_text("\n".join(rows) + "\n")
    loaded = load_observations_csv(tmp_path / "obs.csv").partition
    assert loaded.cells == tuple(edges)
    rng = np.random.default_rng(5)
    for part in (
        loaded,
        window_partition((0.7, 1.0), 10),
        window_partition((0.7, 1.0), 100),
        window_partition((0.25, 0.8), 7),
        window_partition((0.0, 1.0), 1),
    ):
        lo, hi = part.window
        cell_edges = np.array(part.cells).ravel()
        x = np.concatenate([
            cell_edges,  # every edge, on both sides of each meeting point
            np.nextafter(cell_edges, -np.inf),
            np.nextafter(cell_edges, np.inf),
            [lo, hi, hi, -0.0, -1.0, 2.0, np.nan, np.inf, -np.inf],
            rng.uniform(lo - 0.1, hi + 0.1, 500),
        ])
        rng.shuffle(x)
        got = est._count_in_cells(x, part)
        assert got.dtype == float
        assert np.array_equal(got, _count_per_cell(x, part))


def test_uniform_times():
    assert np.allclose(uniform_times(1.0, 2.0, 4), [1.25, 1.5, 1.75, 2.0])


def test_observation_times_must_lie_in_window():
    part = window_partition((0.7, 1.0), 10)
    with pytest.raises(ValueError):
        _problem(_series([0.5, 1.5], part))  # 0.5 <= T1


# ---------------------------------------------------------------------------
# forward model


def test_predict_uniform_initial_mass():
    part = window_partition((0.7, 1.0), 10)
    times = uniform_times(1.0, 2.0, 5)
    prob = _problem(_series(times, part), basis_size=6)
    m = predict(np.ones(6), prob)
    assert m.shape == (5, 3)
    assert np.allclose(m, 0.1, atol=1e-12)


def test_predict_fast_mixing_limit():
    part = window_partition((0.7, 1.0), 10)
    times = uniform_times(1.0, 2.0, 4)
    prob = _problem(_series(times, part), basis_size=8, d=5.0)
    c = np.zeros(8)
    c[2] = 1.0  # lump of mass off-window
    m = predict(c, prob)
    total = m[-1].sum()
    # after strong mixing each cell holds its share of the (unnormalized) mass
    expected = total / 3
    assert np.allclose(m[-1], expected, rtol=1e-6)


def test_predict_matches_fine_grid_reference():
    # grid-refinement oracle: same coefficients, 4x the cells
    part = window_partition((0.7, 1.0), 10)
    times = uniform_times(1.0, 2.0, 5)
    c = np.sin(np.pi * np.linspace(0, 1, 10)) + 0.1
    coarse = _problem(_series(times, part), grid_cells=200, basis_size=10)
    fine = _problem(_series(times, part), grid_cells=800, basis_size=10)
    m_c = predict(c, coarse)
    m_f = predict(c, fine)
    rel = np.linalg.norm(m_c - m_f) / np.linalg.norm(m_f)
    assert rel <= 1e-4


def test_assembled_forward_map_matches_predict():
    # the solver iterates on the assembled map; the march is linear, so the
    # map times c must give predict(c), and the objective on it objective(c),
    # up to rounding
    from swarmcov.estimation import _Plan

    rng = np.random.default_rng(9)
    part = window_partition((0.7, 1.0), 100)
    data = rng.random((6, part.n_cells)) * 0.01
    prob = _problem(_series(uniform_times(1.0, 2.0, 6), part, values=data),
                    lam=0.1, basis_size=7)
    plan = _Plan(prob)
    for _ in range(3):
        c = rng.random(7) * 2.0
        assembled = plan.forward_map @ c
        assert np.allclose(assembled.reshape(6, part.n_cells), predict(c, prob),
                           rtol=1e-12, atol=1e-15)
        assert plan.value(c, assembled) == pytest.approx(objective(c, prob), rel=1e-12)


@pytest.mark.parametrize("divisor", [100, 10])
def test_spectral_forward_map_matches_per_column_marches(divisor):
    # the closed-form map equals the reference it replaces: each hat function
    # marched alone by the finite-volume kernel, step by step, to every
    # observation time, and integrated over the partition cells
    from swarmcov import _pde_kernels as pk
    from swarmcov.estimation import _Plan

    rng = np.random.default_rng(divisor)
    part = window_partition((0.7, 1.0), divisor)
    data = rng.random((8, part.n_cells)) * 0.01
    prob = _problem(_series(uniform_times(1.0, 2.0, 8), part, values=data),
                    grid_cells=100, lam=0.1, basis_size=10)
    plan = _Plan(prob)
    w = np.full(100, prob.d)
    columns = []
    for hat in plan.basis.T:
        u, prev, blocks = hat, 0, []
        for step in plan.obs_steps:
            u, _ = pk.march(u, None, w, None, 0.0, 0.0, (plan.h,), plan.dt, int(step) - prev)
            prev = int(step)
            blocks.append(plan.overlap @ u)
        columns.append(np.concatenate(blocks))
    reference = np.stack(columns, axis=1)
    rel = np.abs(plan.forward_map - reference).max() / np.abs(reference).max()
    assert rel <= 1e-11


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_at_truth_without_regularization():
    prob = _synthetic(np.array([0.3, 1.0, 0.7, 0.2, 0.9, 0.5]), lam=0.0)
    c_true = np.array([0.3, 1.0, 0.7, 0.2, 0.9, 0.5])
    assert objective(c_true, prob) <= 1e-20


def test_objective_decomposition_zero_coefficients():
    part = window_partition((0.7, 1.0), 10)
    times = uniform_times(1.0, 2.0, 8)
    rng = np.random.default_rng(0)
    data = rng.random((8, 3)) * 0.1
    prob = _problem(_series(times, part, values=data), lam=0.1, basis_size=5)
    dt_obs = (2.0 - 1.0) / 8
    # zero prediction, zero reg term; each mass misfit is weighted by 1/width
    expected = dt_obs * (data**2 / part.widths).sum()
    assert objective(np.zeros(5), prob) == pytest.approx(expected, rel=1e-12)


def test_objective_data_term_independent_of_partition_refinement():
    # the same density misfit, constant on each coarse cell, gives the same
    # L2(O x (T1, T2)) data term whether O is cut into 3 cells or 30
    times = uniform_times(1.0, 2.0, 8)
    rng = np.random.default_rng(4)
    density = rng.random((8, 3))  # misfit density per time and coarse cell
    terms = []
    for divisor in (10, 100):
        part = window_partition((0.7, 1.0), divisor)
        mids = np.array([(lo + hi) / 2 for lo, hi in part.cells])
        coarse_cell = np.floor((mids - 0.7) / 0.1).astype(int)
        data = density[:, coarse_cell] * part.widths
        prob = _problem(_series(times, part, values=data), lam=0.1, basis_size=5)
        terms.append(objective(np.zeros(5), prob))
    assert terms[1] == pytest.approx(terms[0], rel=1e-12)


def test_objective_monotone_in_lambda():
    c = np.array([0.5, 1.2, 0.1, 0.8, 0.3])
    part = window_partition((0.7, 1.0), 10)
    times = uniform_times(1.0, 2.0, 6)
    rng = np.random.default_rng(1)
    data = rng.random((6, 3)) * 0.1
    j0 = objective(c, _problem(_series(times, part, values=data), lam=0.0, basis_size=5))
    j1 = objective(c, _problem(_series(times, part, values=data), lam=0.1, basis_size=5))
    assert j1 >= j0


# ---------------------------------------------------------------------------
# adjoint gradient


def test_gradient_zero_at_unregularized_minimum():
    c_true = np.array([0.4, 0.9, 1.3, 0.2, 0.6, 1.0, 0.8, 0.3])
    prob = _synthetic(c_true, lam=0.0)
    g = adjoint_gradient(c_true, prob)
    assert np.abs(g).max() <= 1e-12


def test_gradient_pure_regularization_term():
    # data identical to the prediction leaves only the 2*lam*(mass matrix) part
    c = np.array([0.2, 0.7, 1.1, 0.4, 0.9])
    lam = 0.05
    prob = _synthetic(c, lam=lam)
    prob_zero = _synthetic(c, lam=0.0)
    g = adjoint_gradient(c, prob)
    # hat-basis mass action computed directly from the expanded grid function
    from swarmcov.estimation import _Plan

    plan = _Plan(prob_zero)
    expected = 2 * lam * plan.h * (plan.basis.T @ (plan.basis @ c))
    assert np.allclose(g, expected, rtol=1e-10, atol=1e-14)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    part_pool = [(0.7, 1.0), (0.5, 1.0), (0.0, 1.0)]
    worst = 0.0
    for trial in range(20):
        window = part_pool[trial % 3]
        part = window_partition(window, 10)
        times = uniform_times(1.0, 2.0, 20)
        data = rng.random((20, part.n_cells)) * 0.12
        lam = float(rng.random() * 0.2)
        d = float(0.01 + rng.random() * 0.1)
        prob = _problem(_series(times, part, values=data), grid_cells=50,
                        basis_size=10, d=d, lam=lam)
        c = rng.random(10) + 0.1
        g = adjoint_gradient(c, prob)
        step = 1e-6
        for i in range(10):
            e = np.zeros(10)
            e[i] = step
            fd = (objective(c + e, prob) - objective(c - e, prob)) / (2 * step)
            rel = abs(g[i] - fd) / max(abs(g[i]), 1e-8)
            worst = max(worst, rel)
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# solver


def test_inverse_crime_recovery():
    rng = np.random.default_rng(17)
    c_true = rng.random(10) + 0.2
    prob = _synthetic(c_true, window=(0.0, 1.0), divisor=10, lam=1e-6)
    est = solve_inverse(prob, max_iters=4000)
    rel = np.linalg.norm(est.coefficients - c_true) / np.linalg.norm(c_true)
    assert rel <= 1e-2


def test_huge_lambda_shrinks_to_zero():
    prob = _synthetic(np.array([0.5, 1.0, 0.7, 0.3, 0.8]), lam=1e8)
    est = solve_inverse(prob, max_iters=500)
    assert np.abs(est.coefficients).max() <= 1e-4


def test_max_iters_below_one_is_rejected():
    prob = _synthetic(np.array([0.5, 1.0, 0.7, 0.3, 0.8]), lam=0.1)
    with pytest.raises(ValueError, match="max_iters"):
        solve_inverse(prob, max_iters=0)


def test_non_finite_objective_raises_numeric_error():
    prob = _synthetic(np.array([0.5, 1.0, 0.7]), lam=0.1, basis_size=3)
    for bad in (np.nan, np.inf, -np.inf):
        data = prob.obs.fractions.copy()
        data[2, 1] = bad
        obs = _series(prob.obs.times, prob.obs.partition, values=data)
        with pytest.raises(NumericError, match="non-finite"):
            solve_inverse(_problem(obs, basis_size=3, lam=0.1))
    # finite data whose objective overflows
    huge = _series(prob.obs.times, prob.obs.partition,
                   values=np.full(prob.obs.fractions.shape, 1e300))
    with pytest.raises(NumericError):
        solve_inverse(_problem(huge, basis_size=3, lam=0.1))


def test_monotone_information_in_window_size():
    rng = np.random.default_rng(31)
    c_true = rng.random(10) + 0.2
    errs = []
    for window in ((0.7, 1.0), (0.5, 1.0), (0.0, 1.0)):
        prob = _synthetic(c_true, window=window, divisor=10, lam=1e-6)
        est = solve_inverse(prob, max_iters=4000)
        errs.append(np.linalg.norm(est.coefficients - c_true) / np.linalg.norm(c_true))
    # enlarging the observation window never hurts (small solver slack)
    assert errs[1] <= errs[0] * 1.05 + 1e-8
    assert errs[2] <= errs[1] * 1.05 + 1e-8


# ---------------------------------------------------------------------------
# rescaling


def _grid_fn(n, values):
    return GridFunction(Grid(UNIT, (n,)), np.asarray(values, dtype=float))


def test_rescale_exact_proportionality():
    field = sine_field()
    n = 100
    grid = Grid(UNIT, (n,))
    xs = grid.centers(0)[:, None]
    F = field.eval(xs)
    u_hat = _grid_fn(n, F / 3.0)
    part = window_partition((0.7, 1.0), 10)
    known = np.array([F[(xs[:, 0] >= lo) & (xs[:, 0] < hi)].mean() for lo, hi in part.cells])
    scaled, scale = rescale_with_known(u_hat, part, known)
    assert scale == pytest.approx(3.0, rel=1e-3)
    assert np.allclose(scaled.values, F * (scale / 3.0), rtol=1e-12)


def test_rescale_recovers_field_mass():
    # u_hat = F/int F and known = F implies scale = int F
    n = 200
    grid = Grid(UNIT, (n,))
    xs = grid.centers(0)
    F = 2.0 + np.sin(2 * np.pi * xs)  # mass 2 on [0,1]
    u_hat = _grid_fn(n, F / 2.0)
    part = window_partition((0.7, 1.0), 10)
    known = np.array([F[(xs >= lo) & (xs < hi)].mean() for lo, hi in part.cells])
    _, scale = rescale_with_known(u_hat, part, known)
    assert scale == pytest.approx(2.0, rel=1e-3)


def test_rescale_degenerate_when_estimate_vanishes():
    n = 50
    u_hat = _grid_fn(n, np.zeros(n))
    part = window_partition((0.7, 1.0), 10)
    with pytest.raises(DegenerateFitError):
        rescale_with_known(u_hat, part, np.ones(3))


# ---------------------------------------------------------------------------
# CSV round-trips


def test_observations_csv_roundtrip(tmp_path):
    part = window_partition((0.7, 1.0), 100)
    times = uniform_times(1.0, 3.0, 7)
    rng = np.random.default_rng(2)
    obs = _series(times, part, values=rng.random((7, 30)) * 0.05, n_agents=1234)
    path = tmp_path / "obs.csv"
    save_observations_csv(path, obs)
    back = load_observations_csv(path, n_agents=obs.n_agents)
    assert np.array_equal(back.times, obs.times)
    assert np.array_equal(back.fractions, obs.fractions)
    assert back.partition.cells == obs.partition.cells
    assert back.n_agents == 1234


def test_estimate_csv_roundtrip(tmp_path):
    n = 60
    grid = Grid(UNIT, (n,))
    rng = np.random.default_rng(3)
    u = GridFunction(grid, rng.random(n) + 0.1)
    path = tmp_path / "est.csv"
    save_estimate_csv(path, u)
    back, back_scaled = load_estimate_csv(path)
    assert np.array_equal(back.values, u.values)
    assert back_scaled is None
    scaled = GridFunction(grid, 2.5 * u.values)
    save_estimate_csv(path, u, scaled=scaled)
    back2, back2_scaled = load_estimate_csv(path)
    assert np.array_equal(back2.values, u.values)
    assert np.array_equal(back2_scaled.values, scaled.values)


# ---------------------------------------------------------------------------
# end-to-end protocol


def test_protocol_flat_field_recovers_uniform():
    from swarmcov.fields import AnalyticField

    flat = AnalyticField(UNIT, lambda p: np.ones(p.shape[0]), lambda p: np.zeros_like(p), floor=1.0)
    part = window_partition((0.0, 1.0), 100)  # full-domain window: no blind spots
    res = run_protocol(flat, coverage_gain=1.0, d=0.05, T1=0.3, T2=2.3,
                       n_agents=10_000, partition=part, seed=5, dt_coverage=1e-3,
                       n_obs=10, lam=0.1, basis_size=10, grid_cells=100,
                       max_iters=1000)
    u = res.estimate.u_hat
    uniform = GridFunction(u.grid, np.ones(u.grid.shape))
    assert tv_distance(u, uniform) <= 0.1


@pytest.mark.parametrize("T2", [0.3, 0.2, float("nan")])
def test_protocol_rejects_t2_not_after_t1_before_any_draw(monkeypatch, T2):
    def unreachable(*args, **kwargs):
        raise AssertionError("T2 <= T1 must be rejected before the swarm runs")

    monkeypatch.setattr(sde, "_stream", unreachable)
    with pytest.raises(ValueError, match="T1 < T2"):
        run_protocol(sine_field(), coverage_gain=0.5, d=0.05, T1=0.3, T2=T2, n_agents=50,
                     partition=window_partition((0.7, 1.0), 10), seed=1, dt_coverage=1e-3)


def test_protocol_deterministic_given_seed():
    field = sine_field()
    part = window_partition((0.7, 1.0), 10)
    kwargs = dict(coverage_gain=0.5, d=0.05, T1=0.1, T2=1.1, n_agents=800,
                  partition=part, seed=21, dt_coverage=5e-4, n_obs=5, lam=0.1,
                  basis_size=8, grid_cells=60, max_iters=200)
    a = run_protocol(field, **kwargs)
    b = run_protocol(field, **kwargs)
    assert np.array_equal(a.estimate.u_hat.values, b.estimate.u_hat.values)
    assert np.array_equal(a.observations.fractions, b.observations.fractions)


def test_protocol_longer_settling_does_not_hurt():
    # doubling the coverage time leaves the reconstruction no worse on
    # average (5 seeds)
    field = sine_field()
    part = window_partition((0.7, 1.0), 10)
    errs = {0.3: [], 0.6: []}
    for T1 in errs:
        for seed in range(5):
            res = run_protocol(field, coverage_gain=0.7, d=0.05, T1=T1, T2=T1 + 3.0,
                               n_agents=10_000, partition=part, seed=seed,
                               dt_coverage=5e-5, n_obs=10, lam=0.1, basis_size=10,
                               grid_cells=100, max_iters=1000)
            u = res.estimate.u_hat
            xs = u.grid.centers(0)[:, None]
            F = field.eval(xs)
            target = F / (F.sum() * u.grid.cell_volume)
            errs[T1].append(np.linalg.norm(u.values - target) / np.linalg.norm(target))
    assert np.mean(errs[0.6]) <= np.mean(errs[0.3]) + 0.02
