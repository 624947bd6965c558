"""Graph CTMC: Laplacian, invariant distribution, propagation, sampling."""

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


@st.composite
def chain_cases(draw):
    """A graph, a field, an exponent and a stop rule, sampled with small
    batches and chain slices so that t_end and the jump cap fall in the
    first batch, on a boundary, or several batches in."""
    kind = draw(st.sampled_from(["path", "complete", "random"]))
    n = draw(st.integers(2, 9))
    if kind == "path":
        g = path_graph(n)
    elif kind == "complete":
        g = complete_graph(n)
    else:
        g = random_connected_graph(n, draw(st.integers(0, n)), np.random.default_rng(draw(st.integers(0, 99))))
    f = [draw(st.floats(0.05, 20.0)) for _ in range(n)]
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
