"""Rectangular domains, uniform cell grids, and grid functions.

Everything downstream (histograms, finite-volume solves, estimation) lives on
an axis-aligned box partitioned into equal cells.  A ``GridFunction`` stores
one value per cell, indexed ``[ix]`` in 1D and ``[ix, iy]`` in 2D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Domain", "Grid", "GridFunction", "as_points"]


def as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Canonicalize scalar / (d,) / (n,) / (n, d) input to ((n, d), single?)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        if dim != 1:
            raise ValueError("scalar point given for a multi-dimensional domain")
        return pts.reshape(1, 1), True
    if pts.ndim == 1:
        if dim == 1:
            return pts.reshape(-1, 1), False
        if pts.shape[0] == dim:
            return pts.reshape(1, dim), True
        raise ValueError(f"cannot interpret shape {pts.shape} as {dim}D points")
    if pts.ndim == 2 and pts.shape[1] == dim:
        return pts, False
    raise ValueError(f"cannot interpret shape {pts.shape} as {dim}D points")


def snapshot_steps(times, dt: float, n_steps: int) -> list[int]:
    """Sorted step indices of the nearest step time >= each requested time,
    clamped to [0, n_steps]."""
    return sorted({min(max(int(np.ceil(t / dt - 1e-9)), 0), n_steps) for t in times})


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box given as one (lo, hi) pair per axis."""

    extents: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ext = tuple((float(lo), float(hi)) for lo, hi in self.extents)
        object.__setattr__(self, "extents", ext)
        if not 1 <= len(ext) <= 2:
            raise ValueError("only 1D and 2D domains are supported")
        for lo, hi in ext:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid extent ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def lo(self) -> np.ndarray:
        return np.array([e[0] for e in self.extents])

    @property
    def hi(self) -> np.ndarray:
        return np.array([e[1] for e in self.extents])

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def contains(self, points: np.ndarray, atol: float = 0.0) -> np.ndarray:
        """Boolean mask over points of shape (n, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lo - atol) & (pts <= self.hi + atol), axis=1)

    @staticmethod
    def unit_interval() -> "Domain":
        return Domain(((0.0, 1.0),))

    @staticmethod
    def unit_square() -> "Domain":
        return Domain(((0.0, 1.0), (0.0, 1.0)))


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid over a domain; shape gives cells per axis."""

    domain: Domain
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if len(self.shape) != self.domain.dim:
            raise ValueError("grid shape must have one entry per domain axis")
        if any(n < 1 for n in self.shape):
            raise ValueError("grid needs at least one cell per axis")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / n for (lo, hi), n in zip(self.domain.extents, self.shape)
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def centers(self, axis: int) -> np.ndarray:
        lo, hi = self.domain.extents[axis]
        n = self.shape[axis]
        h = (hi - lo) / n
        return lo + h * (np.arange(n) + 0.5)

    def center_points(self) -> np.ndarray:
        """All cell centers as an (n_cells, dim) array in C order."""
        axes = [self.centers(a) for a in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


class GridFunction:
    """Cell values on a grid; density semantics (mass = sum * cell volume)."""

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        self.grid = grid
        self.values = values

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def normalized(self) -> "GridFunction":
        m = self.mass()
        if m <= 0:
            raise ValueError("cannot normalize a grid function with nonpositive mass")
        return GridFunction(self.grid, self.values / m)

    @staticmethod
    def full(grid: Grid, value: float) -> "GridFunction":
        return GridFunction(grid, np.full(grid.shape, float(value)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"GridFunction(shape={self.grid.shape}, mass={self.mass():.6g})"
