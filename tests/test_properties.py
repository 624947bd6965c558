"""Property tests for the agent-step kernels, the two-bump field, the
swarm's memory layout, the laws' and kernels' buffers, the per-step random
stream, the interpolation kernels, the closed-form diffusion solve, the
finite-volume march, the inverse solve and the command line's exit codes."""

import contextlib
import io
import os
import re
import tempfile

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
from swarmcov.cli import main
from swarmcov.errors import DomainError
from swarmcov.fields import (
    AnalyticField,
    GridField,
    diffusion_coverage_law,
    sine_field,
    two_bump_field,
)
from swarmcov.grids import Domain, Grid, GridFunction
from swarmcov.pde import AdrCoefficients, cfl_max_dt, solve

from test_config_cli import (
    MINIMAL_COVERAGE,
    MINIMAL_GRAPH,
    MINIMAL_PDE,
    OBS_CONFIG,
    OBS_ROWS,
    PROTOCOL_CONFIG,
)

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
@given(boxed_points(), st.floats(1e-8, 1e3), st.integers(0, 2**32 - 1), st.booleans(),
       st.booleans())
def test_step_writes_only_into_its_out_buffer(case, dt, seed, with_drift, fortran_out):
    pos, lo, hi = case
    rng = np.random.default_rng(seed)
    D = rng.random(pos.shape[0]) * 10.0
    drift = rng.standard_normal(pos.shape) if with_drift else None
    noise = rng.standard_normal(pos.shape)
    inputs = [a for a in (pos, D, drift, noise, lo, hi) if a is not None]
    before = [a.copy() for a in inputs]
    fresh = sk.step_active(pos, D, drift, dt, noise, lo, hi)
    out = np.full(pos.shape, np.nan, order="F" if fortran_out else "C")
    given = sk.step_active(pos, D, drift, dt, noise, lo, hi, out=out)
    assert given is out
    _same_bits(fresh, out)
    for a, b in zip(inputs, before):
        _same_bits(a, b)


def _bump_terms(pts, a, b):
    """The masked bump formula fields._bump replaced: exp(-1/(1 - |a*x - b|^2))
    and its gradient, gathered on the points inside the support and
    scattered back."""
    z = a * pts - b
    u = np.sum(z * z, axis=1)
    inside = u < 1.0
    f = np.zeros(pts.shape[0])
    g = np.zeros_like(pts)
    if inside.any():
        ui = u[inside]
        fi = np.exp(-1.0 / (1.0 - ui))
        f[inside] = fi
        # d/dx_j exp(-1/(1-u)) = -f * 2a z_j / (1-u)^2
        scale = -2.0 * a * fi / (1.0 - ui) ** 2
        g[inside] = scale[:, None] * z[inside]
    return f, g


# the bumps' centers and rims, where u is 0 or 1 on the points themselves
_BUMP_MARKS = [0.0, 1.0, 0.5, 1 / 3, 1 / 6, 0.5 - 1e-9, 1 / 6 + 1e-12]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 60), st.just(2)),
                  elements=st.one_of(st.floats(0.0, 1.0), st.sampled_from(_BUMP_MARKS))))
def test_two_bump_values_match_bump_terms(pts):
    field = two_bump_field()
    f1, g1 = _bump_terms(pts, 2.0, 1.0)
    f2, g2 = _bump_terms(pts, 6.0, 2.0)
    expected = np.maximum(f1 - f2, 0.0) + 0.01
    gradient = g1 - g2
    gradient[f1 - f2 <= 0.0] = 0.0
    for x in _both_layouts(pts):
        _same_bits(field.eval(x), expected)
        _same_bits(field.gradient(x), gradient)


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


@pytest.mark.parametrize("c2", [0.0, 0.3])
def test_laws_leave_points_alone_when_the_field_returns_views(c2):
    # the field's values and gradient are views of the points: a law may
    # compute in place only on arrays it made
    field = AnalyticField(Domain.unit_square(), lambda p: p[:, 0], lambda p: p, floor=0.1)
    pts = np.array([[0.25, 0.64]])
    laws = diffusion_coverage_law(field, 0.5, c2)
    D, a = laws.motion(pts)
    assert pts.tolist() == [[0.25, 0.64]]
    assert D[0] == 0.5 / np.sqrt(0.25) + c2
    if c2:
        assert a.tolist() == [[c2 * D[0] / 0.25 * 0.25, c2 * D[0] / 0.25 * 0.64]]
    else:
        assert a is None


def _two_closure_motion(field, c1, c2, pts):
    """D and drift as the diffusion law computed them before one motion call
    gave both: a D closure and a drift closure, each evaluating the field."""
    D = np.sqrt(field.eval(pts))
    np.divide(c1, D, out=D)
    if c2:
        D += c2
    if c2 == 0.0:
        return D, None
    F = field.eval(pts)
    s = np.sqrt(F)
    np.divide(c1, s, out=s)
    s += c2
    s *= c2
    s /= F
    return D, s[:, None] * field.gradient(pts)


class _CountedField:
    """A field that records each eval and gradient call made on it."""

    def __init__(self, field):
        self.field = field
        self.calls = []

    def eval(self, x):
        self.calls.append("eval")
        return self.field.eval(x)

    def gradient(self, x):
        self.calls.append("gradient")
        return self.field.gradient(x)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["sine", "two_bump", "grid"]),
    st.floats(1e-3, 10.0),
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_motion_matches_the_two_closure_law(kind, c1, c2, n, seed):
    field = {"sine": sine_field, "two_bump": two_bump_field,
             "grid": lambda: _grid_field(seed)}[kind]()
    rng = np.random.default_rng(seed)
    pts = rng.random((n, field.domain.dim))
    # a few points on the bumps' centers and rims, and on the walls
    pts[rng.random(pts.shape) < 0.2] = rng.choice(_BUMP_MARKS)
    counted = _CountedField(field)
    laws = diffusion_coverage_law(counted, c1, c2)
    for x in _both_layouts(pts) if pts.shape[1] == 2 else (pts,):
        want_D, want_a = _two_closure_motion(field, c1, c2, x)
        counted.calls.clear()
        D, a = laws.motion(x)
        assert counted.calls == (["eval", "gradient"] if c2 else ["eval"])
        _same_bits(D, want_D)
        if c2:
            _same_bits(a, want_a)
        else:
            assert a is None


# ---------------------------------------------------------------------------
# the per-step stream: one module-level Philox, re-keyed for each (seed, tag),
# draws what a new Generator(Philox(key=(seed, tag))) draws


keys = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(keys, st.one_of(keys, st.just(sde._INIT_TAG)), st.integers(1, 33), st.integers(1, 2),
       keys, keys, st.integers(0, 7), st.integers(0, 7))
def test_stream_draws_what_a_new_philox_draws(seed, tag, n, d, seed0, tag0, normals, floats):
    def new():
        # a uint64 key array: Philox(key=[seed, tag]) goes through float64
        # and rounds keys above 2**53
        key = np.array([seed, tag], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def left_part_way():
        # another stream stopped mid-buffer, possibly holding half a word
        prior = sde._stream(seed0, tag0)
        prior.standard_normal(normals)
        prior.random(floats, dtype=np.float32)

    left_part_way()
    got = sde._stream(seed, tag)
    want = new()
    # as a step draws them: normals, then the switching uniforms
    assert got.standard_normal((n, d)).tobytes() == want.standard_normal((n, d)).tobytes()
    assert got.random((n, 2)).tobytes() == want.random((n, 2)).tobytes()

    left_part_way()
    buf = np.empty((n, d))
    sde._stream(seed, tag).standard_normal(out=buf)
    assert buf.tobytes() == new().standard_normal((n, d)).tobytes()

    left_part_way()
    assert sde._stream(seed, tag).random(n).tobytes() == new().random(n).tobytes()


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
        u, _ = pk.march(u, None, w.values, None, 0.0, 0.0, (h,), rep.dt, step - prev)
        prev = step
        assert np.abs(got.values - u).max() <= 1e-10 * np.abs(u).max()
    assert prev == rep.n_steps
    assert rep.mass_drift <= 1e-13
    # data proportional to 1/w is the discrete steady state
    still = GridFunction(y0.grid, 1.0 / w.values)
    for got in solve(still, AdrCoefficients(w), t_end, snapshot_times=snaps).active:
        assert np.abs(got.values - still.values).max() <= 1e-12 * still.values.max()


@st.composite
def marches_1d(draw):
    """(y1, y2, w, a, H, k, h, dt, nsteps) on 2-30 cells: y1, y2 >= 0 and
    w > 0, drift a and the exchange (y2, H, k) each present or None, at most
    40 steps at the 1D stability bound."""
    n = draw(st.integers(2, 30))
    h = 1.0 / n
    cells = hnp.arrays(float, n, elements=st.floats(0.0, 1e3, allow_subnormal=False))
    y1 = draw(cells)
    w = draw(hnp.arrays(float, n, elements=st.floats(0.01, 10.0)))
    a = y2 = None
    H, k = 0.0, 0.0
    rate = 2.0 * w.max() / h**2
    if draw(st.booleans()):
        a = draw(hnp.arrays(float, n, elements=st.floats(-10.0, 10.0)))
        rate += np.abs(a).max() / h
    if draw(st.booleans()):
        y2 = draw(cells)
        H = draw(hnp.arrays(float, n, elements=st.floats(0.0, 10.0)))
        k = draw(st.floats(0.0, 10.0))
        rate += H.max()
    return y1, y2, w, a, H, k, h, 1.0 / max(rate, k), draw(st.integers(1, 40))


@settings(max_examples=100, deadline=None)
@given(marches_1d(), st.integers(1, 6), st.floats(1e-3, 1.0))
def test_march_of_data_constant_along_y_is_the_1d_march_per_row(case, ny, hy):
    # no flux crosses a y face, so the 2D march at each y cell is the 1D march
    y1, y2, w, a, H, k, h, dt, nsteps = case
    want1, want2 = pk.march(y1, y2, w, None if a is None else (a,), H, k, (h,), dt, nsteps)

    def rows(v):
        return v if v is None or np.isscalar(v) else np.repeat(v[:, None], ny, axis=1)

    drift = None if a is None else (rows(a), np.zeros((a.shape[0], ny)))
    got1, got2 = pk.march(rows(y1), rows(y2), rows(w), drift, rows(H), k, (h, hy), dt, nsteps)
    for j in range(ny):
        assert np.array_equal(got1[:, j], want1)
        if y2 is not None:
            assert np.array_equal(got2[:, j], want2)


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


# ---------------------------------------------------------------------------
# the command line's contract over mutated configs

HOSTILE = ["0", "-1", "1e300", "-1e300", "2.5", "abc", ""]

# The keys that set a run's length also draw from small ranges of working
# values.  No hostile token makes their runs long: 0 and -1 fail a check,
# 1e300 and 2.5 do not parse as integers, and as floats they give a step
# count that is rejected (t_end / dt past 2**63) or a few thousand at most.
RUN_LENGTH = {
    "dt": st.floats(0.005, 0.05),
    "t_end": st.floats(0.0, 0.2),
    "agents": st.integers(1, 100),
    "cells": st.integers(2, 64),
    "max_jumps": st.integers(1, 1000),
    "n": st.integers(1, 8),
    "n_obs": st.integers(1, 5),
    "divisor": st.integers(1, 50),
}

CLI_CONFIGS = {
    "coverage": ("coverage", MINIMAL_COVERAGE),
    "pde": ("pde", MINIMAL_PDE),
    "graph": ("graph", MINIMAL_GRAPH),
    "protocol": ("estimate", PROTOCOL_CONFIG),
    "observations": ("estimate", OBS_CONFIG),
}


# report.csv rows that cmd_pde leaves nan by design: a reactive run has no
# steady state to decay to, and a converged run has no rate to fit
NAN_BY_DESIGN = {"report.csv": {"decay_rate", "decay_r2", "tv_final_to_steady"}}


def _assert_finite_cells(out):
    """Every numeric cell of every CSV in out is finite, but for NAN_BY_DESIGN."""
    for name in sorted(os.listdir(out)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(out, name)) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        for row in rows:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a key
                assert np.isfinite(value) or row[0] in NAN_BY_DESIGN.get(name, ()), (name, row)


@pytest.mark.parametrize("name", list(CLI_CONFIGS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_exits_0_2_or_3_on_any_one_key_mutated(name, data):
    # a config error leaves nothing behind; every failure is one stderr line
    subcommand, text = CLI_CONFIGS[name]
    lines = text.splitlines()
    keys = [i for i, line in enumerate(lines)
            if re.match(r"\w+ = ", line) and not line.startswith("dir =")]
    i = data.draw(st.sampled_from(keys), label="line")
    key = lines[i].split(" = ")[0]
    value = st.sampled_from(HOSTILE)
    if key in RUN_LENGTH:
        value = value | RUN_LENGTH[key].map(str)
    lines[i] = f"{key} = {data.draw(value, label=key)}"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        rows = [",".join(map(str, row)) for row in OBS_ROWS]
        with open(os.path.join(tmp, "obs.csv"), "w") as fh:
            fh.write("\n".join(["t,cell_lo,cell_hi,fraction"] + rows) + "\n")
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines).format(out=out))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", path])
        assert code in (0, 2, 3)
        if code:
            assert len(err.getvalue().splitlines()) == 1
        if code == 2:
            assert err.getvalue().startswith("swarmcov: config error: ")
            assert not os.path.exists(out) or not os.listdir(out)
        if code == 0:
            _assert_finite_cells(out)
