"""Correctness checks on the artifacts of each CLI call.

Every reference here is computed apart from swarmcov: the field formulas,
bilinear interpolation of a CSV field, the heat-equation forward map of the
inverse solve (as powers of its one-step matrix), NNLS on the stacked
objective, the matrix exponential of a graph generator.  The rest are
properties the method must have: unit mass, whole agent counts, falling
total variation, mass conservation.  Each check raises ``CheckError``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import nnls


class CheckError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def read_keyed(path) -> dict[str, float]:
    with open(path) as fh:
        fh.readline()
        return {k: float(v) for k, v in (line.strip().split(",") for line in fh if line.strip())}


def blocks(times: np.ndarray) -> list[np.ndarray]:
    """Row indices of each run of equal times, in file order."""
    cuts = np.flatnonzero(np.diff(times) != 0) + 1
    return np.split(np.arange(len(times)), cuts)


# ---------------------------------------------------------------------------
# fields, from their formulas


def sine(x):
    return (np.sin(np.pi * x) + 0.01) / (2.0 / np.pi + 0.01)


def quadratic(x):
    return (x**2 + 0.01) / (1.0 / 3.0 + 0.01)


def _bump(x, y, a, b):
    u = (a * x - b) ** 2 + (a * y - b) ** 2
    out = np.zeros_like(u)
    inside = u < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside]))
    return out


def two_bump(x, y, background=0.01):
    return np.maximum(_bump(x, y, 2.0, 1.0) - _bump(x, y, 6.0, 2.0), 0.0) + background


def bilinear(xs, ys, values, x, y):
    """Bilinear interpolation of node values on the uniform grid xs x ys."""
    fx = np.clip((x - xs[0]) / (xs[1] - xs[0]), 0.0, len(xs) - 1.0)
    fy = np.clip((y - ys[0]) / (ys[1] - ys[0]), 0.0, len(ys) - 1.0)
    i = np.minimum(np.floor(fx).astype(int), len(xs) - 2)
    j = np.minimum(np.floor(fy).astype(int), len(ys) - 2)
    tx, ty = fx - i, fy - j
    return (
        values[i, j] * (1 - tx) * (1 - ty)
        + values[i + 1, j] * tx * (1 - ty)
        + values[i, j + 1] * (1 - tx) * ty
        + values[i + 1, j + 1] * tx * ty
    )


# ---------------------------------------------------------------------------
# coverage


def check_coverage(out: str, n_agents: int, field) -> None:
    """histograms.csv: unit mass and whole agent counts in every snapshot,
    and total variation to the normalized field (evaluated here at the bin
    centres) lower at the last snapshot than at the first."""
    header, data = read_csv(f"{out}/histograms.csv")
    require(header == ["t", "cell_x", "cell_y", "density"], f"histogram header {header}")
    tvs = []
    for rows in blocks(data[:, 0]):
        x, y, dens = data[rows, 1], data[rows, 2], data[rows, 3]
        bins = round(math.sqrt(len(rows)))
        require(bins * bins == len(rows), "histogram is not a square grid")
        cell = 1.0 / (bins * bins)
        require(abs(dens.sum() * cell - 1.0) <= 1e-12, f"histogram mass {dens.sum() * cell!r}")
        counts = dens * n_agents * cell
        whole = np.rint(counts)
        require(np.abs(counts - whole).max() <= 1e-6, "histogram counts are not whole agents")
        require(int(whole.sum()) == n_agents, f"histogram counts {int(whole.sum())} agents")
        ref = field(x, y)
        ref = ref / (ref.sum() * cell)
        tvs.append(0.5 * np.abs(dens - ref).sum() * cell)
    require(len(tvs) >= 2, "need at least two snapshots")
    require(tvs[-1] < tvs[0], f"TV to the field did not fall: {tvs[0]:.4g} -> {tvs[-1]:.4g}")
    _, reported = read_csv(f"{out}/tv_summary.csv")
    require(
        np.allclose(reported[:, 1], tvs, rtol=0.0, atol=1e-9),
        "tv_summary.csv disagrees with the TV computed from histograms.csv",
    )


# ---------------------------------------------------------------------------
# inverse solve


def window_cells(lo: float, hi: float, divisor: int) -> list[tuple[float, float]]:
    """Cells of the grid {k/divisor} clipped to (lo, hi)."""
    cells = []
    k = math.floor(lo * divisor - 1e-9)
    while k / divisor < hi - 1e-12:
        a, b = max(k / divisor, lo), min((k + 1) / divisor, hi)
        if b - a > 1e-12:
            cells.append((a, b))
        k += 1
    return cells


class HeatModel:
    """The inverse solve's discrete model, built from its definition: hat
    basis on ``basis`` nodes of [0, 1], explicit zero-flux finite volumes
    with ``cells`` cells and dt = 0.9 h^2 / (2 d), masses of each window cell
    at the observation steps, data weights dt_obs / |O_w| and regularization
    lam * h * ||B c||^2."""

    def __init__(self, times, T1, T2, d, cells_w, lam=0.1, cells=100, basis=10):
        h = 1.0 / cells
        self.h = h
        self.dt = 0.9 * h * h / (2.0 * d)
        n_steps = math.ceil((T2 - T1) / self.dt - 1e-9)
        steps = np.clip(np.rint((np.asarray(times) - T1) / self.dt).astype(int), 1, n_steps)
        centres = (np.arange(cells) + 0.5) * h
        nodes = np.linspace(0.0, 1.0, basis)
        self.B = np.clip(1.0 - np.abs(centres[:, None] - nodes[None, :]) / (nodes[1] - nodes[0]), 0.0, None)
        lo_edges = np.arange(cells) * h
        R = np.array([
            np.clip(np.minimum(lo_edges + h, b) - np.maximum(lo_edges, a), 0.0, None)
            for a, b in cells_w
        ])
        lap = -2.0 * np.eye(cells) + np.eye(cells, k=1) + np.eye(cells, k=-1)
        lap[0, 0] = lap[-1, -1] = -1.0
        step = np.eye(cells) + (d * self.dt / (h * h)) * lap
        blocks_, u, prev = [], self.B, 0
        for s in steps:
            u = np.linalg.matrix_power(step, int(s) - prev) @ u
            prev = int(s)
            blocks_.append(R @ u)
        self.A = np.vstack(blocks_)
        widths = np.array([b - a for a, b in cells_w])
        self.weights = ((T2 - T1) / len(times)) * np.tile(1.0 / widths, len(times))
        self.reg = lam * h

    def nnls_minimum(self, data: np.ndarray) -> float:
        """Minimum of the objective over nonnegative coefficients."""
        root = np.sqrt(self.weights)
        M = np.vstack([root[:, None] * self.A, math.sqrt(self.reg) * self.B])
        b = np.concatenate([root * data, np.zeros(self.B.shape[0])])
        _, resid = nnls(M, b)
        return resid**2


def read_observations(path):
    header, data = read_csv(path)
    require(header == ["t", "cell_lo", "cell_hi", "fraction"], f"observation header {header}")
    rows = blocks(data[:, 0])
    times = np.array([data[r[0], 0] for r in rows])
    cells = [(a, b) for a, b in data[rows[0], 1:3]]
    fractions = np.concatenate([data[r, 3] for r in rows])
    return times, cells, fractions


def check_estimate(out: str, T1: float, T2: float, d: float, truth=None, err_bound=None) -> None:
    """estimate.csv is nonnegative with unit mass; objective_final equals the
    NNLS minimum of the stacked objective built from observations.csv; with
    a known field, the relative L2 error to it is within err_bound."""
    header, est = read_csv(f"{out}/estimate.csv")
    require(header[:2] == ["x", "u_hat"], f"estimate header {header}")
    x, u = est[:, 0], est[:, 1]
    h = 1.0 / len(x)
    require(bool((u >= 0).all()), "estimate has negative values")
    require(abs(u.sum() * h - 1.0) <= 1e-9, f"estimate mass {u.sum() * h!r}")
    summary = read_keyed(f"{out}/summary.csv")
    times, cells, fractions = read_observations(f"{out}/observations.csv")
    model = HeatModel(times, T1, T2, d, cells, cells=len(x))
    best = model.nnls_minimum(fractions)
    got = summary["objective_final"]
    require(
        best * (1 - 1e-9) <= got <= best * (1 + 1e-6) + 1e-15,
        f"objective_final {got!r} is not the NNLS minimum {best!r}",
    )
    if truth is not None:
        ref = truth(x)
        ref = ref / (ref.sum() * h)
        err = float(np.linalg.norm(u - ref) / np.linalg.norm(ref))
        require(err <= err_bound, f"relative L2 error {err:.4f} above {err_bound}")
        require(
            abs(summary["rel_l2_error"] - err) <= 1e-9,
            f"summary rel_l2_error {summary['rel_l2_error']!r} differs from {err!r}",
        )


# ---------------------------------------------------------------------------
# mean field


def _snapshots(out: str):
    header, data = read_csv(f"{out}/snapshots.csv")
    require(header == ["t", "cell_x", "density"], f"snapshot header {header}")
    return [(data[r[0], 0], data[r, 1], data[r, 2]) for r in blocks(data[:, 0])]


def check_pde_decay(out: str, d0: float) -> None:
    """Decay rate pi^2 w with w = d0^2, a clean exponential fit, conserved mass."""
    report = read_keyed(f"{out}/report.csv")
    rate = math.pi**2 * d0**2
    require(abs(report["decay_rate"] - rate) <= 1e-3 * rate, f"decay rate {report['decay_rate']!r} vs {rate!r}")
    require(report["decay_r2"] >= 0.99, f"decay fit R^2 {report['decay_r2']!r}")
    require(report["mass_drift"] <= 1e-12, f"mass drift {report['mass_drift']!r}")
    for _, x, dens in _snapshots(out):
        require(abs(dens.sum() / len(x) - 1.0) <= 1e-12, "snapshot mass differs from 1")


def check_pde_longrun(out: str, field) -> None:
    """The last snapshot is the field normalized at the cell centres (the
    steady state of w = c1^2 / F is proportional to F); mass is conserved."""
    report = read_keyed(f"{out}/report.csv")
    require(report["mass_drift"] <= 1e-12, f"mass drift {report['mass_drift']!r}")
    _, x, dens = _snapshots(out)[-1]
    ref = field(x)
    ref = ref / ref.mean()
    tv = 0.5 * np.abs(dens - ref).mean()
    require(tv <= 1e-5, f"final snapshot is {tv:.3g} in TV from the normalized field")


def check_graph(out: str, n, edges, f, c, exponent, p0, times, max_jumps, tv_bound) -> None:
    """Invariant law f^(-e) normalized; propagate.csv equal to expm of the
    generator built here from the edge list; occupation near the invariant
    law; the jump count and trajectory length the config fixes."""
    f = np.asarray(f, dtype=float)
    pi = f ** (-float(exponent))
    pi /= pi.sum()
    _, inv = read_csv(f"{out}/invariant.csv")
    require(np.allclose(inv[:, 1], pi, rtol=1e-12, atol=0.0), "invariant law differs from f^(-e)")
    L = np.zeros((n, n))
    for u, v in edges:
        L[u, u] += 1
        L[v, v] += 1
        L[u, v] -= 1
        L[v, u] -= 1
    Q = -L @ np.diag(c * f ** float(exponent))
    _, prop = read_csv(f"{out}/propagate.csv")
    for t in times:
        got = prop[prop[:, 0] == t][:, 2]
        want = expm(Q * t) @ p0
        require(got.shape == want.shape, f"propagate.csv misses t = {t}")
        require(np.abs(got - want).max() <= 1e-7, f"propagate.csv differs from expm at t = {t}")
    _, occ = read_csv(f"{out}/occupation.csv")
    tv = 0.5 * np.abs(occ[:, 1] - pi).sum()
    require(tv <= tv_bound, f"occupation is {tv:.4g} in TV from the invariant law")
    summary = read_keyed(f"{out}/summary.csv")
    require(summary["n_jumps"] == max_jumps, f"{summary['n_jumps']} jumps, expected {max_jumps}")
    with open(f"{out}/trajectory.csv", "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    require(lines == max_jumps + 2, f"trajectory.csv has {lines} lines")
