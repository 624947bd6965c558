"""Agent simulation: reflection, stepping, determinism, histograms, CSV."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcov import _sde_kernels as sk
from swarmcov import sde
from swarmcov import (
    ConfigError,
    ControlLaws,
    Domain,
    GaussianInit,
    Grid,
    GridFunction,
    PointInit,
    SimConfig,
    SwarmState,
    UniformInit,
    constant_diffusion_law,
    diffusion_coverage_law,
    histogram,
    iter_snapshots,
    reaction_coverage_law,
    reflect,
    simulate,
    sine_field,
    tv_distance,
    two_bump_field,
)
from swarmcov.sde import (
    histogram_series_to_csv,
    load_histogram_series_csv,
    load_snapshots_csv,
    snapshots_to_csv,
)

UNIT = Domain.unit_interval()
SQUARE = Domain(((0.0, 1.0), (0.0, 1.0)))


# ---------------------------------------------------------------------------
# reflection


def test_reflect_single_fold_upper():
    assert reflect(np.array([1.2]), UNIT)[0] == pytest.approx(0.8)


def test_reflect_single_fold_lower():
    assert reflect(np.array([-0.3]), UNIT)[0] == pytest.approx(0.3)


def test_reflect_double_fold():
    assert reflect(np.array([2.5]), UNIT)[0] == pytest.approx(0.5)


def test_reflect_interior_identity_and_idempotence():
    x = np.array([0.4])
    once = reflect(x, UNIT)
    assert once[0] == 0.4
    assert reflect(once, UNIT)[0] == once[0]


def test_reflect_2d_componentwise():
    pt = reflect(np.array([[1.2, -0.3]]), SQUARE)
    assert pt[0, 0] == pytest.approx(0.8)
    assert pt[0, 1] == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# stepping physics


def _run(config, laws, domain=UNIT):
    return simulate(config, laws, domain)


def test_frozen_dynamics_keeps_initial_state():
    laws = constant_diffusion_law(1e-300)  # effectively zero motion
    cfg = SimConfig(n_agents=1, dt=0.1, t_end=1.0, seed=3, snapshot_times=(0.0, 0.5, 1.0),
                    initial=PointInit(np.array([0.25])))
    snaps = _run(cfg, laws)
    for s in snaps:
        assert s.positions[0, 0] == pytest.approx(0.25, abs=1e-9)


def test_one_step_displacement_variance():
    # Var of one Euler step is 2 D^2 dt per axis
    D0, dt, n = 0.05, 1e-3, 100_000
    laws = constant_diffusion_law(D0)
    cfg = SimConfig(n_agents=n, dt=dt, t_end=dt, seed=11, snapshot_times=(0.0, dt),
                    initial=UniformInit())
    first, last = _run(cfg, laws)
    delta = last.positions[:, 0] - first.positions[:, 0]
    # reflection is a null op here: one step from uniform rarely crosses, and
    # folding preserves |displacement| distribution for interior starts
    var = delta.var()
    expected = 2 * D0**2 * dt
    se = expected * np.sqrt(2.0 / (n - 1))
    assert abs(var - expected) <= 3 * se


def test_pure_drift_step():
    # active agent with D ~ 0 and unit drift moves by a*dt
    field = sine_field()
    diffusion = diffusion_coverage_law(field, 1e-300, 0.0)

    def unit_drift(pts):
        D, _ = diffusion.motion(pts)
        return D, np.ones_like(pts)

    laws = type(diffusion)(unit_drift, H=None, k=0.0)
    cfg = SimConfig(n_agents=1, dt=0.1, t_end=0.1, seed=0, snapshot_times=(0.1,),
                    initial=PointInit(np.array([0.2])))
    (snap,) = _run(cfg, laws)
    assert snap.positions[0, 0] == pytest.approx(0.3, abs=1e-12)


def test_no_stopping_without_reaction():
    laws = constant_diffusion_law(0.1)
    cfg = SimConfig(n_agents=500, dt=1e-3, t_end=0.05, seed=5, snapshot_times=(0.05,),
                    initial=UniformInit())
    (snap,) = _run(cfg, laws)
    assert (snap.modes == 1).all()


def test_stopped_agents_under_a_law_without_a_stop_rate_only_restart():
    # a run resumed with stopped agents switches, with a zero stop rate: no
    # active agent stops, and the stopped ones hold still until they restart
    motion = constant_diffusion_law(0.1).motion
    start = SwarmState(0.0, np.full((400, 1), 0.5), np.repeat(np.array([0, 1], np.uint8), 200))
    cfg = SimConfig(n_agents=400, dt=1e-2, t_end=1.0, seed=3, snapshot_times=(1.0,))
    (held,) = simulate(cfg, ControlLaws(motion), UNIT, initial_state=start)
    assert (held.modes == start.modes).all()
    assert (held.positions[:200] == 0.5).all()
    (restarted,) = simulate(cfg, ControlLaws(motion, k=5.0), UNIT, initial_state=start)
    assert (restarted.modes[200:] == 1).all()
    assert (restarted.modes[:200] == 1).mean() > 0.9


def test_switching_reaches_mode_balance():
    # H constant = 2, k = 1: stationary active fraction is k/(H+k) = 1/3
    field = sine_field()
    law0 = reaction_coverage_law(field, 0.05, 1.0, k=1.0)

    def H2(pts):
        return np.full(pts.shape[0], 2.0)

    laws = type(law0)(law0.motion, H=H2, k=1.0)
    cfg = SimConfig(n_agents=20_000, dt=5e-3, t_end=8.0, seed=9, snapshot_times=(8.0,),
                    initial=UniformInit())
    (snap,) = _run(cfg, laws)
    frac = (snap.modes == 1).mean()
    assert frac == pytest.approx(1 / 3, abs=0.02)


def test_positions_stay_inside_domain():
    laws = constant_diffusion_law(0.5)  # huge steps force many folds
    cfg = SimConfig(n_agents=2000, dt=0.05, t_end=1.0, seed=2, snapshot_times=(0.5, 1.0),
                    initial=UniformInit())
    for snap in _run(cfg, laws):
        assert snap.positions.min() >= 0.0
        assert snap.positions.max() <= 1.0


# ---------------------------------------------------------------------------
# validation


def test_zero_agents_rejected():
    with pytest.raises(ConfigError):
        SimConfig(n_agents=0, dt=0.1, t_end=1.0, seed=0)


def test_dt_reaction_precondition():
    field = sine_field()
    laws = reaction_coverage_law(field, 0.1, 1.0, k=30.0)
    cfg = SimConfig(n_agents=10, dt=0.1, t_end=1.0, seed=0)  # dt*k = 3 > 1
    with pytest.raises(ConfigError):
        simulate(cfg, laws, UNIT)


def test_snapshot_outside_horizon_rejected():
    with pytest.raises(ConfigError):
        SimConfig(n_agents=1, dt=0.1, t_end=1.0, seed=0, snapshot_times=(2.0,))


def test_gaussian_init_inside_domain():
    laws = constant_diffusion_law(1e-300)
    cfg = SimConfig(n_agents=5000, dt=0.1, t_end=0.1, seed=7, snapshot_times=(0.0,),
                    initial=GaussianInit(np.array([0.95, 0.5]), 0.3))
    (snap,) = simulate(cfg, laws, SQUARE)
    assert snap.positions.min() >= 0.0 and snap.positions.max() <= 1.0


# ---------------------------------------------------------------------------
# determinism


def _determinism_config():
    return SimConfig(n_agents=4000, dt=1e-3, t_end=0.05, seed=42,
                     snapshot_times=(0.02, 0.05), initial=UniformInit())


def test_repeat_run_bit_identical():
    field = sine_field()
    laws = diffusion_coverage_law(field, 0.05)
    a = _run(_determinism_config(), laws)
    b = _run(_determinism_config(), laws)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.positions, sb.positions)
        assert np.array_equal(sa.modes, sb.modes)


def test_step_offset_resumes_stream():
    # simulating [0, 2k] steps in one go equals two chained runs of k steps
    laws = constant_diffusion_law(0.1)
    full = simulate(
        SimConfig(n_agents=300, dt=1e-3, t_end=0.02, seed=77, snapshot_times=(0.01, 0.02)),
        laws, UNIT,
    )
    head = simulate(
        SimConfig(n_agents=300, dt=1e-3, t_end=0.01, seed=77, snapshot_times=(0.01,)),
        laws, UNIT,
    )
    tail = simulate(
        SimConfig(n_agents=300, dt=1e-3, t_end=0.01, seed=77, snapshot_times=(0.01,)),
        laws, UNIT, initial_state=head[-1], step_offset=10,
    )
    assert np.array_equal(full[0].positions, head[0].positions)
    assert np.array_equal(full[1].positions, tail[0].positions)


@pytest.mark.parametrize("family", ["diffusion", "reaction"])
def test_every_step_snapshot_equals_a_run_stopped_there(family):
    # the run steps its own buffers in place: no snapshot simulate returns
    # may alias a buffer a later step writes into
    field = two_bump_field()
    laws = (diffusion_coverage_law(field, 0.05, 0.1) if family == "diffusion"
            else reaction_coverage_law(field, 0.05, 1.0, 2.0))
    dt, steps = 1e-3, 6
    times = tuple(s * dt for s in range(steps + 1))
    every = simulate(SimConfig(50, dt, steps * dt, 5, times), laws, SQUARE)
    assert len(every) == steps + 1
    for s in range(1, steps + 1):
        stopped = simulate(SimConfig(50, dt, s * dt, 5, (s * dt,)), laws, SQUARE)[-1]
        assert every[s].positions.tobytes() == stopped.positions.tobytes()
        assert every[s].modes.tobytes() == stopped.modes.tobytes()


def test_iter_snapshots_yields_live_states_simulate_copies():
    laws = reaction_coverage_law(two_bump_field(), 0.05, 1.0, 2.0)
    config = SimConfig(60, 1e-3, 4e-3, 9, (0.0, 2e-3, 4e-3))
    copies = simulate(config, laws, SQUARE)
    live = iter_snapshots(config, laws, SQUARE)
    for want in copies:
        got = next(live)
        assert got.time == want.time
        assert got.positions.tobytes(order="C") == want.positions.tobytes()
        assert got.modes.tobytes() == want.modes.tobytes()
    assert next(live, None) is None


def test_iter_snapshots_checks_before_it_is_iterated():
    laws = reaction_coverage_law(two_bump_field(), 0.05, 1.0, 2.0)
    with pytest.raises(ConfigError, match="dt\\*k"):
        iter_snapshots(SimConfig(10, 0.5, 1.0, 1), laws, SQUARE)


# ---------------------------------------------------------------------------
# blocked stepping: each step draws the whole swarm's noise, then steps the
# swarm in blocks of sk.BLOCK agents; every bit must be the one a single
# block over the whole swarm gives


def _blocked_run(case, n, dim):
    """Snapshots of a 3-step run; for "resumed", those of a 3-step reaction
    run followed by those of a drift run resumed from its last state."""
    field = sine_field() if dim == 1 else two_bump_field()
    domain = field.domain
    init = GaussianInit((0.5,) * dim, 0.3)
    config = SimConfig(n, 1e-3, 3e-3, 17, (0.0, 1e-3, 3e-3), init)
    drift = diffusion_coverage_law(field, 0.05, 0.1)
    if case == "drift":
        return simulate(config, drift, domain)
    if case == "switching":
        return simulate(config, reaction_coverage_law(field, 0.05, 50.0, 100.0), domain)
    # stopped agents make the drift run switch, with a zero stop rate
    head = simulate(config, reaction_coverage_law(field, 0.05, 50.0, 100.0), domain)
    return head + simulate(config, drift, domain, initial_state=head[-1], step_offset=3)


def _same_snapshots(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.time == sb.time
        assert sa.positions.tobytes() == sb.positions.tobytes()
        assert sa.modes.tobytes() == sb.modes.tobytes()


@pytest.mark.parametrize("case", ["drift", "switching", "resumed"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [sk.BLOCK - 1, sk.BLOCK, sk.BLOCK + 1, 2 * sk.BLOCK + 3])
def test_blocked_stepping_equals_whole_swarm_stepping(monkeypatch, case, dim, n):
    blocked = _blocked_run(case, n, dim)
    if case == "resumed":
        assert (blocked[2].modes == 0).any()  # the resumed run switches
    monkeypatch.setattr(sk, "BLOCK", n)  # one block: the whole swarm at once
    _same_snapshots(blocked, _blocked_run(case, n, dim))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["drift", "switching", "resumed"]), st.integers(1, 2),
       st.integers(1, 60), st.integers(1, 70))
def test_any_block_size_steps_and_bins_the_same_bits(case, dim, n, block):
    whole = _blocked_run(case, n, dim)
    grid = Grid(SQUARE if dim == 2 else UNIT, (7,) * dim)
    saved = sk.BLOCK
    sk.BLOCK = block
    try:
        _same_snapshots(_blocked_run(case, n, dim), whole)
        for snap in whole:
            # bin_counts takes any layout: C order here, column-major in a run
            for layout in (snap.positions, np.asfortranarray(snap.positions)):
                assert histogram(layout, grid).values.tobytes() == (
                    np.bincount(_cell_index(snap.positions, grid), minlength=7**dim)
                    / (n * grid.cell_volume)).tobytes()
    finally:
        sk.BLOCK = saved


def _cell_index(pos, grid):
    # the flat cell of each point, boundary points in the interior cell
    flat = np.zeros(pos.shape[0], dtype=np.int64)
    for j, (lo, hi) in enumerate(grid.domain.extents):
        nj = grid.shape[j]
        idx = np.clip(np.floor((pos[:, j] - lo) / ((hi - lo) / nj)).astype(np.int64), 0, nj - 1)
        flat = flat * nj + idx
    return flat


def _gaussian_reference(config, domain):
    """The redraw loop _initial_positions replaced: every draw masked and
    copied, rows outside redrawn."""
    rng = sde._stream(config.seed, sde._INIT_TAG)
    init = config.initial
    center = np.asarray(init.center, dtype=float)
    pos = np.empty((config.n_agents, domain.dim))
    pending = np.arange(config.n_agents)
    while pending.size:
        draw = center + init.sigma * rng.standard_normal((pending.size, domain.dim))
        ok = (draw >= domain.lo).all(axis=1) & (draw <= domain.hi).all(axis=1)
        pos[pending[ok]] = draw[ok]
        pending = pending[~ok]
    return pos


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2), st.integers(1, 300), st.integers(0, 2**64 - 1),
       st.floats(0.0, 1.0), st.floats(1e-3, 3.0))
def test_gaussian_init_draws_the_same_bits(dim, n, seed, at, sigma):
    domain = SQUARE if dim == 2 else UNIT
    config = SimConfig(n, 0.1, 0.0, seed, (), GaussianInit((at,) * dim, sigma))
    got = sde._initial_positions(config, domain)
    assert got.flags.f_contiguous
    assert np.ascontiguousarray(got).tobytes() == _gaussian_reference(config, domain).tobytes()


# ---------------------------------------------------------------------------
# histograms and TV distance


def test_histogram_counts_and_mass():
    state = SwarmState(time=0.0, positions=np.array([[0.1], [0.2], [0.6], [0.9]]),
                       modes=np.ones(4, dtype=np.uint8))
    grid = Grid(UNIT, (2,))
    h = histogram(state, grid)
    assert np.allclose(h.values, [1.0, 1.0])
    assert h.values.sum() * grid.cell_volume == pytest.approx(1.0)


def test_histogram_concentration_and_empty_cells():
    state = SwarmState(time=0.0, positions=np.full((7, 1), 0.3),
                       modes=np.ones(7, dtype=np.uint8))
    grid = Grid(UNIT, (4,))
    h = histogram(state, grid)
    assert h.values[1] == pytest.approx(4.0)  # all mass in cell [0.25, 0.5)
    assert h.values[0] == h.values[2] == h.values[3] == 0.0


def test_histogram_boundary_point_goes_inside():
    state = SwarmState(time=0.0, positions=np.array([[1.0]]), modes=np.ones(1, dtype=np.uint8))
    h = histogram(state, Grid(UNIT, (4,)))
    assert h.values[3] > 0


def test_tv_distance_examples():
    grid = Grid(UNIT, (2,))
    p = GridFunction(grid, np.array([2.0, 0.0]))
    q = GridFunction(grid, np.array([0.0, 2.0]))
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == pytest.approx(1.0)
    assert tv_distance(q, p) == pytest.approx(1.0)


def test_tv_distance_grid_mismatch():
    p = GridFunction(Grid(UNIT, (2,)), np.array([1.0, 1.0]))
    q = GridFunction(Grid(UNIT, (4,)), np.full(4, 1.0))
    with pytest.raises(ValueError):
        tv_distance(p, q)


def test_coverage_tv_decreases_over_time():
    # 1D coverage on the sine field: TV to the normalized field shrinks in
    # time, averaged over 10 seeds
    field = sine_field()
    laws = diffusion_coverage_law(field, 0.05)
    grid = Grid(UNIT, (25,))
    xs = grid.centers(0)[:, None]
    ref_vals = field.eval(xs)
    ref = GridFunction(grid, ref_vals / (ref_vals.sum() * grid.cell_volume))
    times = (0.2, 1.0, 5.0)
    tvs = np.zeros(3)
    for seed in range(10):
        cfg = SimConfig(n_agents=3000, dt=1e-3, t_end=5.0, seed=seed,
                        snapshot_times=times, initial=PointInit(np.array([0.5])))
        snaps = simulate(cfg, laws, UNIT)
        tvs += [tv_distance(histogram(s, grid), ref) for s in snaps]
    tvs /= 10
    assert tvs[0] > tvs[1] > tvs[2]


# ---------------------------------------------------------------------------
# CSV round-trips


def test_snapshots_csv_roundtrip(tmp_path):
    laws = constant_diffusion_law(0.1)
    cfg = SimConfig(n_agents=50, dt=1e-3, t_end=0.01, seed=1, snapshot_times=(0.0, 0.01),
                    initial=UniformInit())
    snaps = simulate(cfg, laws, UNIT)
    path = tmp_path / "snaps.csv"
    snapshots_to_csv(snaps, path)
    back = load_snapshots_csv(path)
    assert len(back) == len(snaps)
    for sa, sb in zip(snaps, back):
        assert sa.time == sb.time
        assert np.array_equal(sa.positions, sb.positions)
        assert np.array_equal(sa.modes, sb.modes)


def test_histogram_series_csv_roundtrip(tmp_path):
    laws = constant_diffusion_law(0.1)
    cfg = SimConfig(n_agents=200, dt=1e-3, t_end=0.01, seed=1, snapshot_times=(0.005, 0.01),
                    initial=UniformInit())
    snaps = simulate(cfg, laws, UNIT)
    grid = Grid(UNIT, (10,))
    series = [(s.time, histogram(s, grid)) for s in snaps]
    path = tmp_path / "hists.csv"
    histogram_series_to_csv(series, path)
    back = load_histogram_series_csv(path)
    assert len(back) == 2
    for (ta, ha), (tb, hb) in zip(series, back):
        assert ta == tb
        assert np.array_equal(ha.values, hb.values)
        assert ha.grid.shape == hb.grid.shape
