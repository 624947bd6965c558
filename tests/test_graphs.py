"""Graph CTMC: Laplacian, invariant distribution, propagation, sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcov import _csv
from swarmcov import graphs as gr
from swarmcov import (
    Domain,
    Graph,
    Grid,
    GridFunction,
    complete_graph,
    invariant_distribution,
    laplacian,
    occupation,
    path_graph,
    propagate,
    random_connected_graph,
    sample_ctmc,
    steady_state,
)
from swarmcov.graphs import (
    Trajectory,
    load_edge_list,
    load_trajectory_csv,
    save_edge_list,
    trajectory_to_csv,
)


def test_laplacian_two_path():
    L = laplacian(path_graph(2))
    assert np.array_equal(L, [[1, -1], [-1, 1]])


def test_laplacian_k3():
    L = laplacian(complete_graph(3))
    assert np.array_equal(np.diag(L), [2, 2, 2])
    off = L[~np.eye(3, dtype=bool)]
    assert (off == -1).all()


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(2, 30)), int(rng.integers(0, 10)), rng)
        L = laplacian(g)
        assert np.abs(L.sum(axis=1)).max() == 0
        assert np.array_equal(L, L.T)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 1)}))  # vertex 2 unreachable
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 0)}))  # self loop


def test_invariant_distribution_examples():
    pi = invariant_distribution(path_graph(2), [1.0, 2.0])
    assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-15)
    flat = invariant_distribution(complete_graph(4), [3.0, 3.0, 3.0, 3.0])
    assert np.allclose(flat, 0.25)


def test_invariant_distribution_exponent_flip():
    pi = invariant_distribution(path_graph(2), [1.0, 2.0], exponent=-1)
    assert np.allclose(pi, [1 / 3, 2 / 3], atol=1e-15)


def test_invariant_residual_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 51))
        g = random_connected_graph(n, int(rng.integers(0, n)), rng)
        f = rng.random(n) + 0.05
        c = float(rng.random() + 0.1)
        for e in (1, -1):
            pi = invariant_distribution(g, f, exponent=e)
            L = laplacian(g)
            D = np.diag(c * f**e)
            assert np.abs(L @ D @ pi).max() <= 1e-12
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_propagate_identity_at_zero():
    g = path_graph(3)
    p0 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(propagate(g, p0, [1.0, 1.0, 1.0], 1.0, 0.0), p0)


def test_propagate_two_state_analytic():
    g = path_graph(2)
    p = propagate(g, [1.0, 0.0], [1.0, 1.0], 1.0, 1.0)
    expected = [0.5 + 0.5 * np.exp(-2.0), 0.5 - 0.5 * np.exp(-2.0)]
    assert np.allclose(p, expected, atol=1e-9)
    assert p[0] == pytest.approx(0.56767, abs=5e-6)
    assert p[1] == pytest.approx(0.43233, abs=5e-6)


def test_propagate_fixes_invariant_distribution():
    rng = np.random.default_rng(3)
    g = random_connected_graph(8, 5, rng)
    f = rng.random(8) + 0.1
    pi = invariant_distribution(g, f)
    for t in (0.5, 2.0, 10.0):
        assert np.allclose(propagate(g, pi, f, 0.8, t), pi, atol=1e-9)


def test_propagate_preserves_simplex_and_converges():
    rng = np.random.default_rng(9)
    g = random_connected_graph(12, 6, rng)
    f = rng.random(12) + 0.2
    c = 0.7
    p0 = np.zeros(12)
    p0[3] = 1.0
    pi = invariant_distribution(g, f)
    scale = 1.0 / (c * f.min())
    tvs = []
    for t in (1 * scale, 2 * scale, 4 * scale, 8 * scale):
        p = propagate(g, p0, f, c, t)
        assert p.min() >= -1e-10
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        tvs.append(0.5 * np.abs(p - pi).sum())
    assert all(a >= b - 1e-12 for a, b in zip(tvs, tvs[1:]))


def test_propagate_time_vector_shape():
    g = path_graph(3)
    out = propagate(g, [1.0, 0.0, 0.0], [1.0, 2.0, 3.0], 1.0, [0.5, 1.0, 2.0])
    assert out.shape == (3, 3)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-10)


def test_path_pi_matches_pde_steady_state():
    # a 1D path with f sampled from a field gives the same 1/f law as the
    # FV steady state with w = c*F on matching cells
    n = 16
    xs = (np.arange(n) + 0.5) / n
    f = np.sin(np.pi * xs) + 0.1
    g = path_graph(n)
    pi = invariant_distribution(g, f, exponent=1)
    grid = Grid(Domain.unit_interval(), (n,))
    w = GridFunction(grid, 2.5 * f)
    rho = steady_state(w)
    assert np.allclose(pi, rho.values * grid.cell_volume, atol=1e-14)


def test_sample_ctmc_deterministic_and_valid():
    g = path_graph(4)
    f = [1.0, 2.0, 0.5, 1.5]
    a = sample_ctmc(g, f, 1.0, start=0, t_end=50.0, seed=99)
    b = sample_ctmc(g, f, 1.0, start=0, t_end=50.0, seed=99)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.vertices, b.vertices)
    assert a.times[0] == 0.0
    assert (np.diff(a.times) > 0).all()
    # path graph: consecutive vertices always differ by one
    assert np.abs(np.diff(a.vertices)).max() == 1


def test_sample_ctmc_rate_scaling():
    g = path_graph(2)
    slow = sample_ctmc(g, [1.0, 1.0], 1.0, 0, t_end=100.0, seed=5)
    fast = sample_ctmc(g, [50.0, 50.0], 1.0, 0, t_end=100.0, seed=5)
    assert len(fast.times) > 5 * len(slow.times)


def test_occupation_matches_invariant_two_path():
    g = path_graph(2)
    traj = sample_ctmc(g, [1.0, 2.0], 1.0, 0, t_end=np.inf, seed=123, max_jumps=100_000)
    occ = occupation(traj, 2)
    pi = invariant_distribution(g, [1.0, 2.0])
    assert 0.5 * np.abs(occ - pi).sum() <= 0.02


def test_occupation_simple_hand_case():
    traj = Trajectory(times=np.array([0.0, 1.0, 3.0]), vertices=np.array([0, 1, 0]))
    occ = occupation(traj, 2, t_end=4.0)
    assert np.allclose(occ, [0.5, 0.5])


def test_edge_list_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    g = random_connected_graph(9, 4, rng)
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    back = load_edge_list(path)
    assert back.n_vertices == g.n_vertices
    assert back.edges == g.edges


def test_trajectory_csv_roundtrip(tmp_path):
    g = path_graph(3)
    traj = sample_ctmc(g, [1.0, 1.0, 1.0], 2.0, 1, t_end=10.0, seed=4)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    back = load_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.vertices, traj.vertices)


# ---------------------------------------------------------------------------
# the sampler and the writer against their per-jump / per-row references


def _reference_consume(indptr, indices, rates, u_hold, u_choice, v0, t0, t_end, cap,
                       out_t, out_v):
    # one Python iteration per jump on numpy scalars
    v = v0
    t = t0
    count = 0
    for b in range(u_hold.shape[0]):
        if count >= cap:
            break
        t = t + (-np.log(u_hold[b]) / rates[v])
        if t > t_end:
            return count, v, t, True
        deg = indptr[v + 1] - indptr[v]
        j = int(u_choice[b] * deg)
        if j >= deg:
            j = deg - 1
        v = indices[indptr[v] + j]
        out_t[count] = t
        out_v[count] = v
        count += 1
    return count, v, t, False


def _reference_sample(g, f, c, start, t_end, seed, exponent=1, max_jumps=None, batch=gr._BATCH):
    if g.n_vertices == 1:
        return Trajectory(np.array([0.0]), np.array([start], dtype=np.int64))
    lists = g.neighbor_lists()
    indptr = np.concatenate([[0], np.cumsum([len(a) for a in lists])]).astype(np.int64)
    indices = np.concatenate(lists)
    rates = c * np.asarray(f, dtype=float) ** float(exponent) * g.degrees.astype(float)
    rng = np.random.default_rng(seed)
    times = [np.array([0.0])]
    verts = [np.array([start], dtype=np.int64)]
    v, t = start, 0.0
    remaining = np.inf if max_jumps is None else int(max_jumps)
    out_t = np.empty(batch)
    out_v = np.empty(batch, dtype=np.int64)
    while remaining > 0:
        u_hold = rng.random(batch)
        u_choice = rng.random(batch)
        cap = batch if remaining > batch else int(remaining)
        count, v, t, hit_end = _reference_consume(
            indptr, indices, rates, u_hold, u_choice, v, t, t_end, cap, out_t, out_v
        )
        if count:
            times.append(out_t[:count].copy())
            verts.append(out_v[:count].copy())
        remaining -= count
        if hit_end:
            break
    return Trajectory(np.concatenate(times), np.concatenate(verts))


def _reference_csv(traj, path):
    with open(path, "w") as fh:
        fh.write("t,vertex\n")
        for t, v in zip(traj.times, traj.vertices):
            fh.write(f"{t:.17g},{int(v)}\n")


def _assert_same_path(got, want):
    assert got.times.dtype == want.times.dtype and got.vertices.dtype == want.vertices.dtype
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.vertices, want.vertices)


def _degrees_one_to_thirty():
    # vertices 1..31 (as 0..30), i ~ j when i + j > 31: vertex i has degree i
    # up to 15 and i - 1 from 16, so the degrees are 1..30, and 31 meets all
    g = Graph(31, tuple((i - 1, j - 1) for i in range(1, 32) for j in range(i + 1, 32)
                        if i + j > 31))
    assert set(g.degrees.tolist()) == set(range(1, 31))
    return g


@st.composite
def chain_cases(draw):
    """A graph, a field, an exponent and a stop rule, sampled with small
    batches and chain slices so that t_end and the jump cap fall in the
    first batch, on a boundary, or several batches in."""
    kind = draw(st.sampled_from(["path", "complete", "random", "star", "degrees 1..30"]))
    n = draw(st.integers(2, 9))
    if kind == "path":
        g = path_graph(n)
    elif kind == "complete":
        g = complete_graph(n)
    elif kind == "star":
        g = Graph(n + 1, tuple((0, i) for i in range(1, n + 1)))
    elif kind == "degrees 1..30":
        g = _degrees_one_to_thirty()
    else:
        n = draw(st.integers(2, 40))
        g = random_connected_graph(n, draw(st.integers(0, 2 * n)),
                                   np.random.default_rng(draw(st.integers(0, 99))))
    f = [draw(st.floats(0.05, 20.0)) for _ in range(g.n_vertices)]
    exponent = draw(st.sampled_from([1, -1]))
    max_jumps = draw(st.one_of(st.none(), st.integers(1, 120)))
    if max_jumps is None:
        t_end = draw(st.floats(0.0, 30.0))
    else:
        t_end = draw(st.one_of(st.just(np.inf), st.floats(0.0, 30.0)))
    batch = draw(st.integers(1, 40))
    chain_slice = draw(st.integers(1, 40))
    return g, f, exponent, t_end, max_jumps, batch, chain_slice, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(chain_cases())
def test_sample_ctmc_matches_per_jump_reference(case):
    g, f, exponent, t_end, max_jumps, batch, chain_slice, seed = case
    want = _reference_sample(g, f, 0.7, 0, t_end, seed, exponent, max_jumps, batch=batch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_BATCH", batch)
        mp.setattr(gr, "_CHAIN_SLICE", chain_slice)
        got = sample_ctmc(g, f, 0.7, 0, t_end, seed, exponent, max_jumps)
    _assert_same_path(got, want)


@pytest.mark.parametrize(
    "max_jumps",
    [1, gr._BATCH - 1, gr._BATCH, gr._BATCH + 1, 2 * gr._BATCH + 3],
)
def test_sample_ctmc_matches_reference_at_batch_edges(max_jumps):
    rng = np.random.default_rng(max_jumps)
    g = random_connected_graph(12, 10, rng)
    f = rng.uniform(0.5, 2.0, 12)
    want = _reference_sample(g, f, 1.0, 3, np.inf, 17, -1, max_jumps)
    got = sample_ctmc(g, f, 1.0, 3, np.inf, 17, -1, max_jumps)
    assert got.n_jumps == max_jumps
    _assert_same_path(got, want)


@pytest.mark.parametrize("batches", [0.5, 2.5], ids=["first-batch", "third-batch"])
def test_sample_ctmc_matches_reference_when_t_end_stops_it(batches):
    # unit rates: about one jump per unit time, so t_end ends batch 1 or 3
    g = path_graph(2)
    t_end = batches * gr._BATCH
    want = _reference_sample(g, [1.0, 1.0], 1.0, 0, t_end, 23)
    got = sample_ctmc(g, [1.0, 1.0], 1.0, 0, t_end, 23)
    assert int(batches) * gr._BATCH < got.n_jumps < (int(batches) + 1) * gr._BATCH
    assert got.times[-1] <= t_end
    _assert_same_path(got, want)


def test_sample_ctmc_clamps_a_choice_of_one(monkeypatch):
    # Generator.random never returns 1.0 (u < 1 gives int(u * deg) < deg),
    # so a stub that does checks the clamp onto the last neighbor
    real = np.random.default_rng

    class OnesEveryThird:
        def __init__(self, seed):
            self._rng = real(seed)

        def random(self, size):
            u = self._rng.random(size)
            u[::3] = 1.0
            return u

    monkeypatch.setattr(np.random, "default_rng", OnesEveryThird)
    g = random_connected_graph(7, 6, real(2))
    f = np.linspace(0.5, 2.0, 7)
    want = _reference_sample(g, f, 1.0, 0, np.inf, 5, 1, 50, batch=16)
    monkeypatch.setattr(gr, "_BATCH", 16)
    _assert_same_path(sample_ctmc(g, f, 1.0, 0, np.inf, 5, 1, 50), want)


def _assert_choices(degrees, u):
    """The choice table picks min(int(u * d), d - 1) for each uniform u at each degree d."""
    cuts, rows = gr._choice_table(degrees)
    bins = np.searchsorted(cuts, u, side="right")
    for d in degrees:
        want = np.minimum((u * d).astype(np.int64), d - 1)
        assert [rows[d][b] for b in bins.tolist()] == want.tolist(), d


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(1, 300), min_size=1, max_size=12))
def test_choice_table_steps_where_the_formula_does(degrees):
    degrees = sorted(degrees | {6})
    cuts, _ = gr._choice_table(degrees)
    # every cut and the double below it, where int(u * d) first and last differ
    edges = np.concatenate([cuts, np.nextafter(cuts, 0.0), [0.0, np.nextafter(1.0, 0.0), 1.0]])
    _assert_choices(degrees, edges)


def test_choice_table_cut_below_its_fraction():
    # 5 / 6 rounds to 0.8333333333333334, but int(u * 6) is already 5 one double below
    assert 5 / 6 == 0.8333333333333334 and int(0.8333333333333333 * 6) == 5
    _assert_choices([6], np.array([0.8333333333333333, 5 / 6]))
    _assert_choices(list(range(1, 31)), np.nextafter(np.arange(1, 30) / 30, 0.0))


def test_trajectory_csv_bytes_match_per_row_writer(tmp_path):
    # longer than one write chunk, with the float values hardest to print
    g = random_connected_graph(30, 20, np.random.default_rng(8))
    n = 3 * _csv._CHUNK_ROWS + 5
    traj = sample_ctmc(g, np.linspace(0.2, 3.0, 30), 1.0, 0, np.inf, 31, -1, n - 1)
    special = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 1e22, 1.7976931348623157e308, np.inf]
    traj.times[1 : 1 + len(special)] = special
    traj.times[_csv._CHUNK_ROWS - 1 : _csv._CHUNK_ROWS + 1] = [np.nextafter(2.0, 3.0), 123456789.125]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    trajectory_to_csv(traj, got)
    _reference_csv(traj, want)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\n") == n + 1


# ---------------------------------------------------------------------------
# the streamed path, its occupation and its CSV against the whole path


def reference_occupation(traj, n_vertices, t_end=None):
    """The whole-path occupation: clipped times, their differences, one
    weighted bincount and one sum over the whole path."""
    horizon = float(traj.times[-1]) if t_end is None else float(t_end)
    if horizon <= traj.times[0]:
        raise ValueError("horizon must exceed the trajectory start time")
    t = np.minimum(traj.times, horizon)
    durations = np.diff(np.append(t, horizon))
    return np.bincount(traj.vertices, weights=durations, minlength=n_vertices) / durations.sum()


def _assert_stream_matches_whole(g, f, c, start, t_end, seed, exponent, max_jumps, tmp_path=None):
    """iter_ctmc's chunks join to sample_ctmc's path, their occupation is the
    whole path's, bit for bit, and (given tmp_path) so is their CSV."""
    args = (g, f, c, start, t_end, seed, exponent, max_jumps)
    whole = sample_ctmc(*args)
    chunks = [(t.copy(), v.copy()) for t, v in gr.iter_ctmc(*args)]
    _assert_same_path(Trajectory(*(np.concatenate(col) for col in zip(*chunks))), whole)
    horizon = t_end if np.isfinite(t_end) else None
    try:
        want = reference_occupation(whole, g.n_vertices, horizon)
    except ValueError:
        with pytest.raises(ValueError):
            occupation(gr.iter_ctmc(*args), g.n_vertices, horizon)
        return whole
    got = occupation(gr.iter_ctmc(*args), g.n_vertices, horizon)
    assert np.array_equal(got, want)
    assert np.array_equal(occupation(whole, g.n_vertices, horizon), want)
    # a counter fed while a writer consumes the stream, as the CLI does it
    counter = gr.OccupationCounter(g.n_vertices, horizon,
                                   None if max_jumps is None else max_jumps + 1)
    if tmp_path is None:
        for _ in counter.counting(gr.iter_ctmc(*args)):
            pass
    else:
        streamed, joined = tmp_path / "streamed.csv", tmp_path / "joined.csv"
        trajectory_to_csv(counter.counting(gr.iter_ctmc(*args)), streamed)
        trajectory_to_csv(whole, joined)
        assert streamed.read_bytes() == joined.read_bytes()
    assert np.array_equal(counter.fractions(), want)
    assert counter.n_rows == len(whole.times)
    return whole


@settings(max_examples=200, deadline=None)
@given(chain_cases())
def test_streamed_path_and_occupation_equal_the_whole_path(case):
    g, f, exponent, t_end, max_jumps, batch, chain_slice, seed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_BATCH", batch)
        mp.setattr(gr, "_CHAIN_SLICE", chain_slice)
        _assert_stream_matches_whole(g, f, 0.7, 0, t_end, seed, exponent, max_jumps)


# with batches of 16 jumps: unit rates on a 2-path make about one jump per unit time
B = 16


@pytest.mark.parametrize(
    "t_end, max_jumps, batches",
    [
        pytest.param(0.5 * B, None, 0, id="t_end-in-first-batch"),
        pytest.param(2.5 * B, None, 2, id="t_end-in-third-batch"),
        pytest.param(np.inf, B - 1, 0, id="max_jumps-below-edge"),
        pytest.param(np.inf, B, 0, id="max_jumps-on-edge"),
        pytest.param(np.inf, B + 1, 1, id="max_jumps-above-edge"),
        pytest.param(np.inf, 2 * B, 1, id="max_jumps-on-second-edge"),
        pytest.param(2.5 * B, 10 * B, 2, id="t_end-before-max_jumps"),
        pytest.param(10.0 * B, 2 * B, 1, id="max_jumps-on-edge-before-t_end"),
        pytest.param(10.0 * B, 2 * B + 3, 2, id="max_jumps-before-t_end"),
    ],
)
def test_streamed_path_at_batch_edges(tmp_path, monkeypatch, t_end, max_jumps, batches):
    monkeypatch.setattr(gr, "_BATCH", B)
    monkeypatch.setattr(gr, "_CHAIN_SLICE", 5)
    g = path_graph(2)
    whole = _assert_stream_matches_whole(g, [1.0, 1.0], 1.0, 0, t_end, 23, 1, max_jumps,
                                         tmp_path)
    # the jump that stops the path: the last one kept, or the first past t_end
    capped = whole.n_jumps == max_jumps
    assert capped == (not np.isfinite(t_end) or max_jumps is not None and max_jumps < 3 * B)
    assert (whole.n_jumps - capped) // B == batches
    want = _reference_sample(g, [1.0, 1.0], 1.0, 0, t_end, 23, 1, max_jumps, batch=B)
    _assert_same_path(whole, want)


def test_streamed_path_at_full_batch_size(tmp_path):
    # the sampler's own batch and chain slice, three batches and a cut one
    rng = np.random.default_rng(3)
    g = random_connected_graph(12, 10, rng)
    f = rng.uniform(0.5, 2.0, 12)
    whole = _assert_stream_matches_whole(g, f, 1.0, 3, np.inf, 17, -1, 2 * gr._BATCH + 3,
                                         tmp_path)
    assert whole.n_jumps == 2 * gr._BATCH + 3


def test_streamed_one_vertex_path(tmp_path):
    g = Graph(1, ())
    whole = _assert_stream_matches_whole(g, [2.0], 1.0, 0, 2.5, 3, 1, None, tmp_path)
    assert whole.n_jumps == 0
    assert [(t.tolist(), v.tolist()) for t, v in gr.iter_ctmc(g, [2.0], 1.0, 0, 2.5, 3)] == [
        ([0.0], [0])]


def test_iter_ctmc_checks_its_arguments_when_called():
    g = path_graph(3)
    for args in [(g, [1.0, 1.0, 1.0], 1.0, 3, 1.0, 0), (g, [1.0, 1.0, 1.0], 0.0, 0, 1.0, 0),
                 (g, [1.0, 1.0, 1.0], 1.0, 0, -1.0, 0), (g, [1.0, 0.0, 1.0], 1.0, 0, 1.0, 0)]:
        with pytest.raises(ValueError):
            gr.iter_ctmc(*args)  # no next(): the check runs before the first draw


def test_occupation_of_chunks_rejects_a_horizon_at_the_start():
    with pytest.raises(ValueError, match="horizon"):
        occupation([(np.array([0.0, 1.0]), np.array([0, 1]))], 2, t_end=0.0)
    with pytest.raises(ValueError, match="horizon"):
        occupation([(np.array([0.0]), np.array([0]))], 2)


# ---------------------------------------------------------------------------
# the walk's binning and its per-vertex table against searchsorted and the
# per-jump walk


def _assert_slot_bins_match_searchsorted(degrees, u):
    cuts, _ = gr._choice_table(degrees)
    u = np.concatenate([u, cuts, np.nextafter(cuts, 0.0), [0.0, np.nextafter(1.0, 0.0), 1.0]])
    got = gr._slot_bins(cuts)(u)
    assert got.tolist() == np.searchsorted(cuts, u, side="right").tolist()


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 300), min_size=1, max_size=20), st.integers(0, 2**32 - 1))
def test_slot_bins_equal_searchsorted(degrees, seed):
    # at every cut and the double below it, at 0.0, 1.0 (the clamp's stub) and at random
    u = np.random.default_rng(seed).random(500)
    _assert_slot_bins_match_searchsorted(sorted(degrees), u)


@pytest.mark.parametrize("degrees", [[1], [999], [1, 40]], ids=["no-cuts", "one-degree", "star"])
def test_slot_bins_equal_searchsorted_at_extremes(degrees):
    _assert_slot_bins_match_searchsorted(degrees, np.random.default_rng(1).random(2000))


def _threshold_graph(n):
    # vertices 1..n (as 0..n-1), i ~ j when i + j > n: the degrees are 1..n-1
    return Graph(n, tuple((i - 1, j - 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                          if i + j > n))


def _star(leaves):
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


# the star of 2,000 leaves has 1,999 cuts: its table would hold 4 M slots, past
# _STEP_SLOTS; the 300-vertex graph walks the table with vertex ids past 255, and
# the threshold graph with 482 bins, past a byte; step_slots 0 puts every graph
# past the bound, where the walk takes two lookups per jump, the degree and the
# padded neighbor list
@pytest.mark.parametrize(
    "g",
    [_star(30), complete_graph(9), _threshold_graph(40), _star(2000),
     random_connected_graph(300, 150, np.random.default_rng(300))],
    ids=["star", "complete", "threshold-40", "hub-star-2000", "random-300"],
)
@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("t_end, max_jumps", [(np.inf, 500), (150.0, None), (150.0, 700)])
@pytest.mark.parametrize("step_slots", [gr._STEP_SLOTS, 0], ids=["bound", "two-lookups"])
def test_per_vertex_table_walk_equals_per_jump_walk(g, seed, t_end, max_jumps, step_slots):
    if g.n_vertices == 40:
        assert set(g.degrees.tolist()) == set(range(1, 40))
    f = np.linspace(0.5, 3.0, g.n_vertices)
    want = _reference_sample(g, f, 1.3, 1, t_end, seed, -1, max_jumps, batch=37)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_BATCH", 37)
        mp.setattr(gr, "_CHAIN_SLICE", 11)
        mp.setattr(gr, "_STEP_SLOTS", step_slots)
        got = sample_ctmc(g, f, 1.3, 1, t_end, seed, -1, max_jumps)
    assert got.n_jumps > 3 * 37
    if g.n_vertices == 300:
        assert 300 * (sum(range(9)) + 1) <= gr._STEP_SLOTS  # degrees 1..9: a table
        assert set(g.degrees.tolist()) == set(range(1, 10)) and got.vertices.max() > 255
    _assert_same_path(got, want)


# stars on both sides of a byte: 256 vertices and 254 cuts, 257 and 255, 258
# and 256; the last leaf is entered only from the hub's last bin
@pytest.mark.parametrize("leaves", [255, 256, 257])
@pytest.mark.parametrize("step_slots", [gr._STEP_SLOTS, 0], ids=["table", "per-jump"])
def test_walk_on_both_sides_of_a_byte(leaves, step_slots):
    g = _star(leaves)
    assert len(gr._choice_table([1, leaves])[0]) == leaves - 1
    f = np.linspace(0.5, 3.0, g.n_vertices)
    want = _reference_sample(g, f, 1.3, 1, np.inf, 5, -1, 20_000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_STEP_SLOTS", step_slots)
        got = sample_ctmc(g, f, 1.3, 1, np.inf, 5, -1, 20_000)
    assert got.vertices.max() == leaves
    _assert_same_path(got, want)


@pytest.mark.parametrize("step_slots", [gr._STEP_SLOTS, 0], ids=["table", "two-lookups"])
def test_chain_takes_each_vertex_choice(step_slots, monkeypatch):
    # from v, each u enters the neighbor min(int(u * d), d - 1): u at the least
    # u of each bin, the double below each cut, and the top of [0, 1]
    monkeypatch.setattr(gr, "_STEP_SLOTS", step_slots)
    g = _threshold_graph(40)
    chain = gr._chain(g)
    cuts, _ = gr._choice_table(np.unique(g.degrees).tolist())
    least = np.concatenate([[0.0], cuts])
    assert np.searchsorted(cuts, least, side="right").tolist() == list(range(len(cuts) + 1))
    u = np.concatenate([least, np.nextafter(cuts, 0.0), [np.nextafter(1.0, 0.0), 1.0]])
    for v, nb in enumerate(g.neighbor_lists()):
        d = len(nb)
        got = [chain(v, u[k:k + 1])[0] for k in range(len(u))]
        assert got == nb[np.minimum((u * d).astype(np.int64), d - 1)].tolist()


def test_hub_star_chain_keeps_the_per_degree_rows(monkeypatch):
    # a per-vertex table for 3,000 leaves would hold 3,001 x 3,000 slots (72 MB);
    # past _STEP_SLOTS the chain builds no cuts, and holds the padded neighbor
    # lists and the degrees
    g = _star(3000)
    assert g.n_vertices * ((1 - 1) + (3000 - 1) + 1) > gr._STEP_SLOTS  # degrees 1 and 3,000

    def no_table(*args):
        raise AssertionError("the walk past the bound built a choice table")

    monkeypatch.setattr(gr, "_choice_table", no_table)
    monkeypatch.setattr(gr, "_slot_bins", no_table)
    tracemalloc.start()
    try:
        gr._chain(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
