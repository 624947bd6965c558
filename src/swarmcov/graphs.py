"""Field-weighted random walks on graphs.

The network analogue of field-proportional coverage: on a connected undirected
graph carrying positive vertex values f, the continuous-time Markov chain with
generator -L*D, where L is the graph Laplacian and D = diag(c * f(i)**e),
holds at vertex i for an exponential time with rate c*f(i)**e * deg(i) and
then jumps to a uniformly random neighbor.  With e = +1 the invariant
distribution is proportional to 1/f; with e = -1 it is proportional to f
(time spent proportional to the field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from ._csv import read_csv, write_chunks

__all__ = [
    "Graph",
    "Trajectory",
    "laplacian",
    "invariant_distribution",
    "propagate",
    "iter_ctmc",
    "sample_ctmc",
    "OccupationCounter",
    "occupation",
    "path_graph",
    "complete_graph",
    "random_connected_graph",
    "load_edge_list",
    "save_edge_list",
    "trajectory_to_csv",
    "load_trajectory_csv",
]

_BATCH = 1 << 16  # uniforms drawn per batch, for holding times and choices alike
_CHAIN_SLICE = 8192  # jumps walked per Python list
_MAX_RESERVED = 1 << 20  # occupation durations reserved at the first chunk, at most
_STEP_SLOTS = 1 << 18  # slots of the walk's per-vertex step table, at most


@dataclass(frozen=True)
class Graph:
    """Connected undirected simple graph on vertices 0..n-1."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n_vertices
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        norm = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if not self._connected():
            raise ValueError("graph must be connected")

    def _connected(self) -> bool:
        if self.n_vertices == 1:
            return True
        adj = self.neighbor_lists()
        seen = np.zeros(self.n_vertices, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())

    def neighbor_lists(self) -> list[np.ndarray]:
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return [np.array(sorted(a), dtype=np.int64) for a in adj]

    @property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass
class Trajectory:
    """Jump chain record: vertices[j] entered at times[j]; times[0] = start time."""

    times: np.ndarray
    vertices: np.ndarray

    @property
    def n_jumps(self) -> int:
        return len(self.times) - 1


def _check_field(g: Graph, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n_vertices,):
        raise ValueError("vertex field must have one value per vertex")
    if (f <= 0).any():
        raise ValueError("vertex field must be strictly positive")
    return f


def _check_exponent(exponent: int) -> int:
    if exponent not in (1, -1):
        raise ValueError("weight exponent must be +1 or -1")
    return int(exponent)


def laplacian(g: Graph) -> np.ndarray:
    """Dense graph Laplacian: degree matrix minus adjacency matrix."""
    L = np.zeros((g.n_vertices, g.n_vertices))
    for u, v in g.edges:
        L[u, u] += 1.0
        L[v, v] += 1.0
        L[u, v] -= 1.0
        L[v, u] -= 1.0
    return L


def invariant_distribution(g: Graph, f, exponent: int = 1) -> np.ndarray:
    """Stationary distribution of the chain: proportional to f**(-exponent)."""
    f = _check_field(g, f)
    e = _check_exponent(exponent)
    pi = f ** (-float(e))
    return pi / pi.sum()


def propagate(
    g: Graph,
    p0,
    f,
    c: float,
    t,
    exponent: int = 1,
) -> np.ndarray:
    """Solve dp/dt = -L D p exactly at time(s) t.

    By detailed balance -L D is similar to the symmetric -D^1/2 L D^1/2, so
    p(t) = D^-1/2 V exp(lam t) V^T D^1/2 p0 from one eigendecomposition.
    Returns p(t) for scalar t, or an array of shape (len(t), n) for a sequence.
    """
    f = _check_field(g, f)
    e = _check_exponent(exponent)
    if c <= 0:
        raise ValueError("rate constant c must be positive")
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (g.n_vertices,):
        raise ValueError("p0 must have one entry per vertex")
    if (p0 < 0).any() or not np.isclose(p0.sum(), 1.0, atol=1e-9):
        raise ValueError("p0 must be a probability vector")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if (t_arr < 0).any():
        raise ValueError("times must be nonnegative")
    root = np.sqrt(c * f**float(e))
    lam, V = np.linalg.eigh(-(root[:, None] * laplacian(g) * root))
    # lam ascends to the conserved mode D^-1/2 1 of the connected graph, whose
    # eigenvalue is 0: pinned so that mass holds however long t is
    lam[-1] = 0.0
    out = (np.exp(np.multiply.outer(t_arr, lam)) * (V.T @ (root * p0))) @ V.T / root
    return out[0] if np.ndim(t) == 0 else out


def _choice_table(degrees) -> tuple[np.ndarray, dict[int, list[int]]]:
    """Cut points and choice rows for the uniform neighbor choice at these degrees.

    A uniform u picks neighbor min(int(u * d), d - 1) of a degree-d vertex, a
    step function of u.  It steps at the smallest double u with
    int(u * d) >= i, for i = 1..d-1, which i / d can miss by an ulp (5 / 6 is
    one above it): each cut starts at i / d and moves by ulps until it is that
    double.  ``cuts`` holds the cuts of every degree, sorted and distinct, so
    a uniform's bin b = searchsorted(cuts, u, side="right") fixes its choice
    at every degree: ``rows[d][b]``.
    """
    d = np.concatenate([np.full(k - 1, k, dtype=np.int64) for k in degrees])
    i = np.concatenate([np.arange(1, k) for k in degrees])
    u = i / d
    while (low := u * d < i).any():
        u[low] = np.nextafter(u[low], 1.0)
    while (high := np.nextafter(u, 0.0) * d >= i).any():
        u[high] = np.nextafter(u[high], 0.0)
    cuts = np.unique(u)
    rows = {k: [0] + np.searchsorted(u[d == k], cuts, side="right").tolist() for k in degrees}
    return cuts, rows


def _slot_bins(cuts: np.ndarray):
    """A function taking uniforms u in [0, 1] to searchsorted(cuts, u, side="right").

    [0, 1) is split into G slots of width 1 / G, G the power of two at least
    len(cuts) (and at least 2), so slot k = int(u * G) is exact, and u = 1.0
    gets slot G.  ``start[k]`` counts the cuts below k / G, all of them at or
    below u; the cuts of later slots all exceed u; so u's bin is start[k]
    plus the number of slot k's cuts at or below u.  m, the most cuts a slot
    holds, bounds that number: m comparisons with ``pad``, the cuts followed
    by m + 1 copies of 2.0, which no u reaches, count them.  The memory is
    O(len(cuts)).
    """
    G = max(2, 1 << (len(cuts) - 1).bit_length())
    start = np.searchsorted(cuts, np.arange(G + 1) / G, side="left")
    m = int(np.diff(start).max())
    pad = np.concatenate([cuts, np.full(m + 1, 2.0)])
    shifted = [pad[j:] for j in range(m)]  # shifted[j][s] is pad[s + j]

    def bins(u):
        s = start[(u * G).astype(np.intp)]
        b = s.copy()
        for p in shifted:
            b += p[s] <= u
        return b

    return bins


def _chain(g: Graph):
    """chain(v, u): the list of vertices a walk from v enters, one for each
    choice uniform in the array u, each the neighbor min(int(u * d), d - 1)
    of the vertex it leaves, d that vertex's degree.

    While the per-vertex step table fits in _STEP_SLOTS, the chain bins the
    uniforms among the choice table's cuts (_slot_bins) and takes one lookup
    per jump, step[v][b]: the row of v's degree composed with v's neighbors,
    built once per walk at 8 bytes a slot (the rows share the neighbor lists'
    int objects), so at most 2 MB and about 10 ms.  The bins come as bytes
    while they fit in one.  The table has n * (#cuts + 1) slots, and a degree
    d adds at most d - 1 cuts, so n * (sum of d - 1 over the distinct degrees
    + 1) bounds it before anything is built.  Past that the chain takes the
    neighbor index itself, int(u * d), in v's neighbor list padded with its
    last neighbor (u = 1.0 gives index d), and builds no cuts.  Hubs pass the
    bound, since a star of N leaves has N - 1 cuts, a table of (N + 1) N
    slots, and so do wide degree ranges: 300 vertices of degrees 1..299 have
    27,898 cuts, a table of 8.4 M slots.  A 50-vertex graph of degrees 1..8
    has 50 x 22.
    """
    nbrs = [a.tolist() for a in g.neighbor_lists()]
    degrees = np.unique(g.degrees).tolist()
    if len(nbrs) * (sum(degrees) - len(degrees) + 1) > _STEP_SLOTS:
        padded = [nb + nb[-1:] for nb in nbrs]
        scale = [float(len(nb)) for nb in nbrs]

        def chain(v, u):
            return [v := padded[v][int(x * scale[v])] for x in u.tolist()]

        return chain
    cuts, rows = _choice_table(degrees)
    bins_of = _slot_bins(cuts)
    step = [tuple(map(nb.__getitem__, rows[len(nb)])) for nb in nbrs]
    if len(cuts) < 256:
        def chain(v, u):
            return [v := step[v][b] for b in bins_of(u).astype(np.uint8).tobytes()]
    else:
        def chain(v, u):
            return [v := step[v][b] for b in bins_of(u).tolist()]

    return chain


def iter_ctmc(
    g: Graph,
    f,
    c: float,
    start: int,
    t_end: float,
    seed: int,
    exponent: int = 1,
    max_jumps: Optional[int] = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Sample one chain path by the direct (next-event) method, as a stream.

    Checks the arguments when called, then yields the path in order as
    (times, vertices) chunks: first the start, (0.0, start), then the jumps
    of each batch.  The chunks are views of the sampler's buffers, valid
    until the next chunk is drawn.  The path stops at the first jump past
    t_end or after max_jumps jumps, whichever comes first.

    Uniforms are drawn _BATCH holding times and _BATCH choices at a time.
    The vertex chain, the only Python loop, takes one table lookup per jump:
    step[v][b], the vertex entered from v when the choice uniform falls in
    bin b of the choice table's cuts, binned by numpy slot by slot
    (_slot_bins), on graphs whose table fits in _STEP_SLOTS; past that it
    takes the neighbor index int(u * deg) per jump (_chain).  On graphs of
    at most 256 vertices the entered vertices come back as bytes.  The
    holding times and their running sum (sequential, so each jump time is
    the rounded t + hold of a per-jump loop) are computed in place of their
    uniforms.
    """
    f = _check_field(g, f)
    e = _check_exponent(exponent)
    if c <= 0:
        raise ValueError("rate constant c must be positive")
    if not 0 <= start < g.n_vertices:
        raise ValueError("start vertex out of range")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    return _walk(g, c * f**float(e) * g.degrees.astype(float), start, t_end, seed, max_jumps)


def _walk(g, rates, start, t_end, seed, max_jumps):
    yield np.array([0.0]), np.array([start], dtype=np.int64)
    if g.n_vertices == 1:
        return
    chain = _chain(g)
    narrow = g.n_vertices <= 256  # every vertex id fits in a byte
    rng = np.random.default_rng(seed)
    remaining = np.inf if max_jumps is None else int(max_jumps)
    # path[k] is the vertex held before jump k and path[k + 1] the one it
    # enters; the walk goes _CHAIN_SLICE jumps at a time to bound its lists
    path = np.empty(_BATCH + 1, dtype=np.int64)
    v, t = start, 0.0
    while remaining > 0:
        u_hold = rng.random(_BATCH)
        u_choice = rng.random(_BATCH)
        cap = _BATCH if remaining > _BATCH else int(remaining)
        path[0] = v
        for lo in range(0, cap, _CHAIN_SLICE):
            hi = min(lo + _CHAIN_SLICE, cap)
            entered = chain(v, u_choice[lo:hi])
            path[lo + 1 : hi + 1] = np.frombuffer(bytes(entered), np.uint8) if narrow else entered
            v = entered[-1]
        # the holding times, then the jump times, in place of their uniforms;
        # the first jump time is h + t, which is t + h
        jump_t = u_hold[:cap]
        np.log(jump_t, out=jump_t)
        np.negative(jump_t, out=jump_t)
        jump_t /= rates[path[:cap]]
        jump_t[0] += t
        np.cumsum(jump_t, out=jump_t)
        past = np.flatnonzero(jump_t > t_end)
        count = int(past[0]) if past.size else cap
        yield jump_t[:count], path[1 : count + 1]
        if past.size:
            return
        t = jump_t[-1]
        remaining -= cap


def sample_ctmc(
    g: Graph,
    f,
    c: float,
    start: int,
    t_end: float,
    seed: int,
    exponent: int = 1,
    max_jumps: Optional[int] = None,
) -> Trajectory:
    """Sample one chain path: the chunks of iter_ctmc, joined."""
    chunks = [(t.copy(), v.copy()) for t, v in iter_ctmc(g, f, c, start, t_end, seed, exponent,
                                                         max_jumps)]
    return Trajectory(*(np.concatenate(column) for column in zip(*chunks)))


def _chunks(traj) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    return [(traj.times, traj.vertices)] if isinstance(traj, Trajectory) else traj


class OccupationCounter:
    """Time spent at each vertex, counted chunk by chunk as a path comes in.

    ``add`` takes the path's (times, vertices) chunks in order; ``fractions``
    then gives what ``occupation`` of the whole path gives, bit for bit.  Each
    row's duration, min(next time, horizon) - min(time, horizon), is known
    once the next row (or the end) comes, and is added to its vertex's time
    with ``np.add.at`` in path order, the sequence of additions
    ``np.bincount`` makes over the whole path.  The durations are also kept,
    in one buffer: numpy sums an array pairwise, so only the sum of the whole
    array gives the bits the normalizing total has.  With t_end None the
    horizon is the last time, which must then be the largest, as it is on
    every sampled path.  ``n_rows`` (the rows expected, if known) sizes the
    buffer; it grows past that as needed.
    """

    def __init__(self, n_vertices: int, t_end: Optional[float] = None,
                 n_rows: Optional[int] = None):
        self.n_rows = 0
        self._horizon = None if t_end is None else float(t_end)
        self._freq = np.zeros(n_vertices)
        self._durations = np.empty(0)
        self._reserve = min(n_rows or 0, _MAX_RESERVED)
        self._start = self._last = self._last_vertex = None

    def add(self, times, vertices) -> None:
        """Count the next chunk of the path: equal-length times and vertices."""
        times, vertices = np.asarray(times), np.asarray(vertices)
        if not len(times):
            return
        if self._start is None:
            self._start = times[0]
            self._check_horizon()
        clipped = times if self._horizon is None else np.minimum(times, self._horizon)
        n, m = self.n_rows, len(times)
        if n + m > len(self._durations):
            grown = np.empty(max(n + m, self._reserve, 2 * len(self._durations)))
            grown[:n] = self._durations[:n]
            self._durations = grown
        d = self._durations
        # row n - 1, the last of the previous chunk, ends where this chunk starts
        if n:
            d[n - 1] = clipped[0] - self._last
            self._freq[self._last_vertex] += d[n - 1]
        np.subtract(clipped[1:], clipped[:-1], out=d[n : n + m - 1])
        np.add.at(self._freq, vertices[:-1], d[n : n + m - 1])
        self._last, self._last_vertex = clipped[-1], vertices[-1]
        self.n_rows = n + m

    def counting(self, chunks) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Count each of the chunks, then pass it on: a path drawn once can
        feed this counter and a writer."""
        for times, vertices in chunks:
            self.add(times, vertices)
            yield times, vertices

    def _check_horizon(self) -> None:
        if self._horizon is not None and self._horizon <= self._start:
            raise ValueError("horizon must exceed the trajectory start time")

    def fractions(self) -> np.ndarray:
        """The fraction of time spent at each vertex, up to the horizon."""
        if self._start is None:
            raise ValueError("occupation needs a path of at least one row")
        if self._horizon is None:
            # the last time is the horizon: it clips nothing before it
            self._horizon = float(self._last)
            self._check_horizon()
        n = self.n_rows
        d = self._durations[:n]
        d[-1] = self._horizon - self._last  # the last row is clipped already
        freq = self._freq.copy()
        freq[self._last_vertex] += d[-1]
        return freq / d.sum()


def occupation(traj, n_vertices: int, t_end: Optional[float] = None) -> np.ndarray:
    """Fraction of time spent at each vertex (up to t_end or the last jump).

    ``traj`` is a Trajectory or its (times, vertices) chunks in order, such
    as iter_ctmc yields; see OccupationCounter.
    """
    if isinstance(traj, Trajectory):
        # a whole path's last time is known: clipping at it is exact for any times
        horizon = traj.times[-1] if t_end is None else t_end
        counter = OccupationCounter(n_vertices, horizon, len(traj.times))
    else:
        counter = OccupationCounter(n_vertices, t_end)
    for times, vertices in _chunks(traj):
        counter.add(times, vertices)
    return counter.fractions()


# ---------------------------------------------------------------------------
# constructors and I/O


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def random_connected_graph(n: int, extra_edges: int, rng: np.random.Generator) -> Graph:
    """Random spanning tree by sequential attachment plus extra random edges."""
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    attempts = 0
    while len(edges) < (n - 1) + extra_edges and attempts < 50 * (extra_edges + 1):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
        attempts += 1
    return Graph(n, tuple(edges))


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def load_edge_list(path, n_vertices: Optional[int] = None) -> Graph:
    """Read whitespace-separated 0-indexed vertex pairs, one edge per line."""
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line: {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    if n_vertices is None:
        n_vertices = 1 + max(max(u, v) for u, v in edges) if edges else 1
    return Graph(n_vertices, tuple(edges))


def trajectory_to_csv(traj, path) -> None:
    """Write one "t,vertex" row per jump, times at 17 significant digits.

    ``traj`` is a Trajectory or its (times, vertices) chunks in order, each
    written as it comes.
    """
    write_chunks(path, "t,vertex", "%.17g,%d", _chunks(traj))


def load_trajectory_csv(path) -> Trajectory:
    """Read the format written by trajectory_to_csv."""
    raw = read_csv(path, "t,vertex")
    return Trajectory(
        np.asarray(raw["t"], dtype=float), np.asarray(raw["vertex"], dtype=np.int64)
    )
