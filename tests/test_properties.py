"""Property tests for the agent-step kernels, the two-bump field, the
swarm's memory layout, the interpolation kernels, the closed-form diffusion
solve and the inverse solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmcov import _field_kernels as fk
from swarmcov import _pde_kernels as pk
from swarmcov import _sde_kernels as sk
from swarmcov import estimation as est
from swarmcov import sde
from swarmcov.errors import DomainError
from swarmcov.fields import GridField, _bump_terms, diffusion_coverage_law, two_bump_field
from swarmcov.grids import Domain, Grid, GridFunction
from swarmcov.pde import AdrCoefficients, cfl_max_dt, solve

# magnitudes stay far from overflow of x - lo and 2 * span
coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
far = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
span_st = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def boxed_points(draw):
    """(x, lo, hi): (n, d) points mixing far-away values, the box faces
    themselves, signed zeros and interior points, in a box whose lo may be
    zero, -0.0 or anything else."""
    d = draw(st.integers(1, 2))
    lo = np.array([draw(st.one_of(st.just(0.0), st.just(-0.0), coord)) for _ in range(d)])
    hi = lo + np.array([draw(span_st) for _ in range(d)])
    n = draw(st.integers(1, 40))
    picks = []
    for _ in range(n * d):
        j = len(picks) % d
        picks.append(
            draw(
                st.one_of(
                    far,
                    st.sampled_from([lo[j], hi[j], -0.0, 0.0]),
                    st.floats(lo[j], hi[j]),
                )
            )
        )
    return np.array(picks).reshape(n, d), lo, hi


def _reflect_every_element(x, lo, hi):
    # the fold applied to every coordinate, inside the box or not
    span = hi - lo
    m = np.mod(x - lo, 2.0 * span)
    return lo + np.where(m > span, 2.0 * span - m, m)


@settings(max_examples=300, deadline=None)
@given(boxed_points())
def test_reflect_matches_folding_every_element(case):
    x, lo, hi = case
    got = sk.reflect_points(x.copy(), lo, hi)
    assert got.tobytes() == _reflect_every_element(x, lo, hi).tobytes()


@settings(max_examples=300, deadline=None)
@given(boxed_points())
def test_reflect_lands_in_box_and_is_idempotent(case):
    x, lo, hi = case
    once = sk.reflect_points(x, lo, hi)
    assert np.all(once >= lo) and np.all(once <= hi)
    assert sk.reflect_points(once, lo, hi).tobytes() == once.tobytes()


@settings(max_examples=200, deadline=None)
@given(boxed_points(), st.floats(1e-8, 1e3), st.integers(0, 2**32 - 1))
def test_step_without_drift_equals_zero_drift(case, dt, seed):
    pos, lo, hi = case
    rng = np.random.default_rng(seed)
    D = rng.random(pos.shape[0]) * 10.0
    noise = rng.standard_normal(pos.shape)
    none = sk.step_active(pos, D, None, dt, noise, lo, hi)
    zero = sk.step_active(pos, D, np.zeros_like(pos), dt, noise, lo, hi)
    assert none.tobytes() == zero.tobytes()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 60), st.just(2)),
                  elements=st.floats(0.0, 1.0)))
def test_two_bump_values_match_bump_terms(pts):
    field = two_bump_field()
    f1, _ = _bump_terms(pts, 2.0, 1.0)
    f2, _ = _bump_terms(pts, 6.0, 2.0)
    expected = np.maximum(f1 - f2, 0.0) + 0.01
    assert field.eval(pts).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# memory layout: the simulator holds the swarm column-major, and every kernel
# and field must give the bits it gives on the C-ordered (n, 2) array


@st.composite
def unit_square_swarms(draw):
    """(n, 2) points in C order mixing the unit square's interior, its walls,
    signed zeros, points outside it and NaN."""
    n = draw(st.integers(2, 40))
    coord = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, -0.0, 1.0]),
        st.floats(-2.0, 3.0),
        st.just(float("nan")),
    )
    return np.array(draw(st.lists(coord, min_size=2 * n, max_size=2 * n))).reshape(n, 2)


def _both_layouts(a):
    c, f = np.ascontiguousarray(a), np.asfortranarray(a)
    # one row is both orders at once
    assert f.flags.f_contiguous and (a.shape[0] < 2 or not f.flags.c_contiguous)
    return c, f


def _same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


_LO, _HI = np.zeros(2), np.ones(2)


def _grid_field(seed):
    rng = np.random.default_rng(seed)
    axes = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 7))
    return GridField(axes, rng.random((5, 7)) + 0.1)


@settings(max_examples=200, deadline=None)
@given(unit_square_swarms(), st.integers(0, 2**32 - 1), st.booleans())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_agent_kernels_are_layout_invariant(pts, seed, with_drift):
    rng = np.random.default_rng(seed)
    n = pts.shape[0]
    D = rng.random(n)
    drift = rng.standard_normal((n, 2))
    noise = rng.standard_normal((n, 2))
    unif = rng.random((n, 2))
    H = rng.random(n) * 10.0
    modes = (rng.random(n) < 0.5).astype(np.uint8)
    results = []
    for p, z, a in zip(_both_layouts(pts), _both_layouts(noise), _both_layouts(drift)):
        a = a if with_drift else None
        moved = sk.step_active(p, D, a, 0.01, z, _LO, _HI)
        sp, sm = p.copy(order="K"), modes.copy()
        sk.step_switching(sp, sm, D, a, H, 5.0, 0.01, z, unif, _LO, _HI)
        results.append((
            moved, sp, sm,
            sk.reflect_points(p, _LO, _HI),
            sk.bin_counts(p, _LO, _HI, (4, 3)),
            Domain.unit_square().contains(p),
            Domain.unit_square().contains(p, atol=1e-12),
        ))
    for c_result, f_result in zip(*results):
        _same_bits(c_result, f_result)


@settings(max_examples=200, deadline=None)
@given(unit_square_swarms(), st.integers(0, 2**32 - 1))
def test_fields_are_layout_invariant(pts, seed):
    inside = Domain.unit_square().contains(pts, atol=1e-12)
    for field in (two_bump_field(), _grid_field(seed)):
        if not inside.all():
            # NaN and outside points fail the domain check in either order
            for x in _both_layouts(pts):
                with pytest.raises(DomainError):
                    field.eval(x)
                with pytest.raises(DomainError):
                    field.gradient(x)
        c, f = _both_layouts(pts[inside])
        _same_bits(field.eval(c), field.eval(f))
        _same_bits(field.gradient(c), field.gradient(f))


def _interp1_reference(xq, lo, h, values):
    # the formula the kernel replaces: gathers and temporaries per corner
    n = values.shape[0]
    s = np.clip((np.asarray(xq, dtype=float) - lo) / h, 0.0, n - 1.0)
    i = np.minimum(s.astype(np.int64), n - 2)
    f = s - i
    return values[i] * (1.0 - f) + values[i + 1] * f


def _interp2_reference(xq, yq, lox, hx, loy, hy, values):
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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 9),
    st.integers(2, 9),
    st.floats(-5.0, 5.0),
    st.floats(1e-3, 10.0),
    st.integers(1, 50),
    st.integers(0, 2**32 - 1),
)
def test_interpolation_matches_the_per_corner_formula(nx, ny, lo, h, n, seed):
    rng = np.random.default_rng(seed)
    values = rng.random((nx, ny)) * 10.0 - 1.0
    span_x, span_y = (nx - 1) * h, (ny - 1) * h
    # queries inside, on the nodes and edges, and beyond them (clamped)
    xq = lo + span_x * np.concatenate([rng.uniform(-0.2, 1.2, n), np.linspace(0, 1, nx)])
    yq = lo + span_y * np.concatenate([rng.uniform(-0.2, 1.2, n), np.linspace(0, 1, nx)])
    got = fk.interp2(xq, yq, lo, h, lo, h, values)
    _same_bits(got, _interp2_reference(xq, yq, lo, h, lo, h, values))
    got = fk.interp1(xq, lo, h, values[:, 0].copy())
    _same_bits(got, _interp1_reference(xq, lo, h, values[:, 0].copy()))


@pytest.mark.parametrize("c2", [0.0, 0.05])
def test_simulate_returns_c_ordered_snapshots(c2):
    laws = diffusion_coverage_law(two_bump_field(), 0.05, c2)
    config = sde.SimConfig(200, 0.01, 0.05, 3, (0.0, 0.02, 0.05))
    snaps = sde.simulate(config, laws, Domain.unit_square())
    # a resumed run starts from a C-ordered state and returns C order too
    more = sde.simulate(config, laws, Domain.unit_square(), snaps[-1], step_offset=5)
    for snap in snaps + more:
        assert snap.positions.shape == (200, 2)
        assert snap.positions.flags.c_contiguous
        assert snap.modes.flags.c_contiguous


@st.composite
def diffusion_problems(draw):
    """(y0, w, t_end, snapshot times) on 2-40 cells of the unit interval:
    w in [0.01, 10], y0 >= 0 (possibly all zero), at most 3000 steps."""
    n = draw(st.integers(2, 40))
    w = draw(hnp.arrays(float, n, elements=st.floats(0.01, 10.0)))
    y0 = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1e3, allow_subnormal=False)))
    grid = Grid(Domain.unit_interval(), (n,))
    wf = GridFunction(grid, w)
    t_end = draw(st.floats(1e-3, 1.0)) * 3000 * 0.9 * cfl_max_dt(wf)
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=5))
    return GridFunction(grid, y0), wf, t_end, [t_end * u for u in fractions]


@settings(max_examples=100, deadline=None)
@given(diffusion_problems())
def test_closed_form_diffusion_matches_the_march(case):
    y0, w, t_end, snaps = case
    rep = solve(y0, AdrCoefficients(w), t_end, snapshot_times=snaps)
    h = y0.grid.spacing[0]
    u, prev = y0.values, 0
    for t, got in zip(rep.times, rep.active):
        step = round(t / rep.dt)
        u = pk.march_diffusion_1d(u, w.values, h, rep.dt, step - prev)
        prev = step
        assert np.abs(got.values - u).max() <= 1e-10 * np.abs(u).max()
    assert prev == rep.n_steps
    assert rep.mass_drift <= 1e-13
    # data proportional to 1/w is the discrete steady state
    still = GridFunction(y0.grid, 1.0 / w.values)
    for got in solve(still, AdrCoefficients(w), t_end, snapshot_times=snaps).active:
        assert np.abs(got.values - still.values).max() <= 1e-12 * still.values.max()


@st.composite
def inverse_problems(draw):
    """Small estimation problems: a window of the unit interval cut at 1/10
    or 1/100, 1-12 observation times in (1, 2], nonnegative fractions of
    mixed magnitude, any lam >= 0 including 0 (a rank-deficient fit)."""
    lo = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9]))
    part = est.window_partition((lo, 1.0), draw(st.sampled_from([10, 100])))
    times = est.uniform_times(1.0, 2.0, draw(st.integers(1, 12)))
    scale = draw(st.sampled_from([1e-6, 1e-2, 1.0, 1e3]))
    seed = draw(st.integers(0, 2**32 - 1))
    fractions = scale * np.random.default_rng(seed).random((len(times), part.n_cells))
    obs = est.ObservationSeries(times, fractions, 0, part)
    return est.EstimationProblem(
        Domain.unit_interval(),
        draw(st.integers(4, 80)),
        draw(st.integers(2, 12)),
        draw(st.floats(1e-3, 1.0)),
        draw(st.one_of(st.just(0.0), st.floats(1e-8, 10.0))),
        1.0,
        2.0,
        obs,
    )


@settings(max_examples=150, deadline=None)
@given(inverse_problems())
def test_inverse_solution_is_a_kkt_point(problem):
    # nonnegative, with gradient zero where c > 0 and nonnegative where c = 0
    solution = est.solve_inverse(problem)
    c = solution.coefficients
    g = est.adjoint_gradient(c, problem)
    assert (c >= 0).all()
    kkt = np.where(c > 0, np.abs(g), np.maximum(-g, 0.0)).max()
    assert kkt <= 1e-9 * max(1.0, np.abs(g).max())
    assert solution.kkt_residual == kkt
    assert solution.objective_history == [est.objective(c, problem)]
