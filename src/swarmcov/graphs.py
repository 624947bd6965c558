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

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._csv import read_csv, write_csv

__all__ = [
    "Graph",
    "Trajectory",
    "laplacian",
    "invariant_distribution",
    "propagate",
    "sample_ctmc",
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


def _choice_table(degrees) -> tuple[np.ndarray, dict[int, array]]:
    """Cut points and choice rows for the uniform neighbor choice at these degrees.

    A uniform u picks neighbor min(int(u * d), d - 1) of a degree-d vertex, a
    step function of u.  It steps at the smallest double u with
    int(u * d) >= i, for i = 1..d-1, which i / d can miss by an ulp (5 / 6 is
    one above it): each cut starts at i / d and moves by ulps until it is that
    double.  ``cuts`` holds the cuts of every degree, sorted and distinct, so
    a uniform's bin b = searchsorted(cuts, u, side="right") fixes its choice
    at every degree: ``rows[d][b]``, one compact array per degree.
    """
    d = np.concatenate([np.full(k - 1, k, dtype=np.int64) for k in degrees])
    i = np.concatenate([np.arange(1, k) for k in degrees])
    u = i / d
    while (low := u * d < i).any():
        u[low] = np.nextafter(u[low], 1.0)
    while (high := np.nextafter(u, 0.0) * d >= i).any():
        u[high] = np.nextafter(u[high], 0.0)
    cuts = np.unique(u)
    dtype = np.min_scalar_type(max(degrees) - 1)
    rows = {}
    for k in degrees:
        row = np.zeros(len(cuts) + 1, dtype=dtype)
        row[1:] = np.searchsorted(u[d == k], cuts, side="right")
        rows[k] = array(dtype.char, row.tobytes())
    return cuts, rows


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
    """Sample one chain path by the direct (next-event) method.

    Stops at the first jump past t_end or after max_jumps jumps, whichever
    comes first.  Uniforms are drawn _BATCH holding times and _BATCH choices
    at a time.  Each choice uniform is binned among the cut points of the
    choice table in one numpy call, so the vertex chain, the only Python
    loop, takes two list lookups per jump: the bin's choice in the row of
    the vertex's degree, then that neighbor.  The holding times and their
    running sum (sequential, so each jump time is the rounded t + hold of a
    per-jump loop) are whole-batch numpy expressions.
    """
    f = _check_field(g, f)
    e = _check_exponent(exponent)
    if c <= 0:
        raise ValueError("rate constant c must be positive")
    if not 0 <= start < g.n_vertices:
        raise ValueError("start vertex out of range")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if g.n_vertices == 1:
        return Trajectory(np.array([0.0]), np.array([start], dtype=np.int64))

    nbrs = [a.tolist() for a in g.neighbor_lists()]
    degrees = g.degrees
    cuts, rows = _choice_table(np.unique(degrees).tolist())
    pick = [rows[d] for d in degrees.tolist()]
    rates = c * f**float(e) * degrees.astype(float)
    rng = np.random.default_rng(seed)

    times = [np.array([0.0])]
    verts = [np.array([start], dtype=np.int64)]
    v, t = start, 0.0
    remaining = np.inf if max_jumps is None else int(max_jumps)
    while remaining > 0:
        u_hold = rng.random(_BATCH)
        u_choice = rng.random(_BATCH)
        cap = _BATCH if remaining > _BATCH else int(remaining)
        # path[k] is the vertex held before jump k and path[k + 1] the one
        # it enters; the walk goes _CHAIN_SLICE jumps at a time to bound its lists
        path = np.empty(cap + 1, dtype=np.int64)
        path[0] = v
        for lo in range(0, cap, _CHAIN_SLICE):
            hi = min(lo + _CHAIN_SLICE, cap)
            bins = np.searchsorted(cuts, u_choice[lo:hi], side="right").tolist()
            path[lo + 1 : hi + 1] = [v := nbrs[v][pick[v][b]] for b in bins]
        jump_t = np.empty(cap + 1)
        jump_t[0] = t
        jump_t[1:] = -np.log(u_hold[:cap]) / rates[path[:cap]]
        np.cumsum(jump_t, out=jump_t)
        past = np.flatnonzero(jump_t[1:] > t_end)
        count = int(past[0]) if past.size else cap
        times.append(jump_t[1 : count + 1])
        verts.append(path[1 : count + 1])
        if past.size:
            break
        t = jump_t[cap]
        remaining -= cap
    return Trajectory(np.concatenate(times), np.concatenate(verts))


def occupation(traj: Trajectory, n_vertices: int, t_end: Optional[float] = None) -> np.ndarray:
    """Fraction of time spent at each vertex (up to t_end or the last jump)."""
    horizon = float(traj.times[-1]) if t_end is None else float(t_end)
    if horizon <= traj.times[0]:
        raise ValueError("horizon must exceed the trajectory start time")
    t = np.minimum(traj.times, horizon)
    durations = np.diff(np.append(t, horizon))
    total = durations.sum()
    freq = np.bincount(traj.vertices, weights=durations, minlength=n_vertices)
    return freq / total


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


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write one "t,vertex" row per jump, times at 17 significant digits."""
    write_csv(path, "t,vertex", "%.17g,%d", traj.times, traj.vertices)


def load_trajectory_csv(path) -> Trajectory:
    """Read the format written by trajectory_to_csv."""
    raw = read_csv(path, "t,vertex")
    return Trajectory(
        np.asarray(raw["t"], dtype=float), np.asarray(raw["vertex"], dtype=np.int64)
    )
