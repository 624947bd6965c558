"""Positive scalar fields and the swarm control laws derived from them.

A field assigns a strictly positive value to every point of a rectangular
domain; the swarm's job is to match its normalized shape.  Fields come in two
flavors: closed-form (`AnalyticField`) and sampled on a uniform node grid
(`GridField`, loadable from CSV).  Control laws map a field to the coefficient
functions of the agent process: a diffusion coefficient D and an optional
drift a, computed together from one evaluation of the field, and an optional
deactivation rate H with companion reactivation rate k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _field_kernels as _fk
from ._csv import write_csv
from .errors import DomainError
from .grids import Domain, Grid, as_points

__all__ = [
    "ScalarField",
    "AnalyticField",
    "GridField",
    "ControlLaws",
    "field_mass",
    "normalize",
    "diffusion_coverage_law",
    "reaction_coverage_law",
    "constant_diffusion_law",
    "sine_field",
    "quadratic_field",
    "two_bump_field",
    "load_field_csv",
    "save_field_csv",
]

_BOUNDARY_ATOL = 1e-12


class ScalarField:
    """Base class: strictly positive scalar field on a box domain.

    Attributes
    ----------
    domain : Domain
    floor : float
        A positive lower bound on the field values (used to validate laws
        that divide by the field).
    """

    domain: Domain
    floor: float
    label: str

    def _eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _gradient(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_inside(self, pts: np.ndarray) -> None:
        # each axis's min and max against the padded box first; NaN fails
        # this test, and the mask then finds the offending point
        if not pts.size or all(
            pts[:, j].min() >= lo - _BOUNDARY_ATOL and pts[:, j].max() <= hi + _BOUNDARY_ATOL
            for j, (lo, hi) in enumerate(self.domain.extents)
        ):
            return
        ok = self.domain.contains(pts, atol=_BOUNDARY_ATOL)
        if not ok.all():
            bad = pts[~ok][0]
            raise DomainError(f"point {bad} lies outside the field domain")

    def eval(self, x):
        pts, single = as_points(x, self.domain.dim)
        self._check_inside(pts)
        vals = self._eval(pts)
        return float(vals[0]) if single else vals

    def gradient(self, x):
        pts, single = as_points(x, self.domain.dim)
        self._check_inside(pts)
        grads = self._gradient(pts)
        return grads[0] if single else grads

    def scaled(self, factor: float) -> "ScalarField":
        raise NotImplementedError

    def __call__(self, x):
        return self.eval(x)


class AnalyticField(ScalarField):
    """Field given by closed-form value and gradient callables on (n, d) points."""

    def __init__(
        self,
        domain: Domain,
        fn: Callable[[np.ndarray], np.ndarray],
        grad_fn: Callable[[np.ndarray], np.ndarray],
        floor: float,
        label: str = "analytic",
    ):
        if floor <= 0:
            raise ValueError("field floor must be strictly positive")
        self.domain = domain
        self.floor = float(floor)
        self.label = label
        self._fn = fn
        self._grad_fn = grad_fn

    def _eval(self, pts):
        return np.asarray(self._fn(pts), dtype=float)

    def _gradient(self, pts):
        return np.asarray(self._grad_fn(pts), dtype=float)

    def scaled(self, factor: float) -> "AnalyticField":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        fn, grad_fn = self._fn, self._grad_fn
        return AnalyticField(
            self.domain,
            lambda pts: factor * fn(pts),
            lambda pts: factor * grad_fn(pts),
            floor=self.floor * factor,
            label=self.label,
        )


class GridField(ScalarField):
    """Field sampled on a uniform node grid, evaluated by multilinear interpolation.

    Node samples must be strictly positive; a nonpositive sample is a
    construction error rather than something to clamp silently.  Gradients are
    precomputed at the nodes with second-order central differences (one-sided
    second-order stencils at the boundary nodes) and interpolated like the
    values.
    """

    def __init__(self, axes: tuple[np.ndarray, ...], values: np.ndarray, label: str = "grid"):
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        values = np.asarray(values, dtype=float)
        if len(axes) not in (1, 2):
            raise ValueError("grid fields support 1D and 2D only")
        if values.shape != tuple(len(a) for a in axes):
            raise ValueError("values shape does not match node axes")
        for a in axes:
            if len(a) < 3:
                raise ValueError("need at least 3 nodes per axis")
            steps = np.diff(a)
            if not np.all(steps > 0):
                raise ValueError("node coordinates must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise ValueError("node coordinates must be uniformly spaced")
        vmin = float(values.min())
        if vmin <= 0 or not np.all(np.isfinite(values)):
            raise ValueError(
                f"grid field samples must be strictly positive and finite (min={vmin:g})"
            )
        self.axes = axes
        self.values = values
        self.domain = Domain(tuple((float(a[0]), float(a[-1])) for a in axes))
        self.floor = vmin
        self.label = label
        self._spacing = tuple(float(a[1] - a[0]) for a in axes)
        # nodal gradients, one array per axis
        if len(axes) == 1:
            self._grads = (np.gradient(values, self._spacing[0], edge_order=2),)
        else:
            self._grads = (
                np.gradient(values, self._spacing[0], axis=0, edge_order=2),
                np.gradient(values, self._spacing[1], axis=1, edge_order=2),
            )

    def _interp(self, pts: np.ndarray, values: np.ndarray) -> np.ndarray:
        if len(self.axes) == 1:
            return _fk.interp1(
                np.ascontiguousarray(pts[:, 0]),
                self.axes[0][0],
                self._spacing[0],
                np.ascontiguousarray(values),
            )
        return _fk.interp2(
            np.ascontiguousarray(pts[:, 0]),
            np.ascontiguousarray(pts[:, 1]),
            self.axes[0][0],
            self._spacing[0],
            self.axes[1][0],
            self._spacing[1],
            np.ascontiguousarray(values),
        )

    def _eval(self, pts):
        return self._interp(pts, self.values)

    def _gradient(self, pts):
        out = np.empty((pts.shape[0], len(self.axes)), order="F")
        for axis, g in enumerate(self._grads):
            out[:, axis] = self._interp(pts, g)
        return out

    def scaled(self, factor: float) -> "GridField":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return GridField(self.axes, self.values * factor, label=self.label)


# ---------------------------------------------------------------------------
# built-in fields


def sine_field() -> AnalyticField:
    """1D field c*(sin(pi x) + 0.01) on [0, 1], scaled to unit mass."""
    c = 1.0 / (2.0 / np.pi + 0.01)

    def fn(pts):
        v = np.multiply(pts[:, 0], np.pi)
        np.sin(v, out=v)
        v += 0.01
        v *= c
        return v

    def grad_fn(pts):
        return (c * np.pi * np.cos(np.pi * pts[:, 0]))[:, None]

    return AnalyticField(Domain.unit_interval(), fn, grad_fn, floor=c * 0.01, label="sine")


def quadratic_field() -> AnalyticField:
    """1D field c*(x^2 + 0.01) on [0, 1], scaled to unit mass."""
    c = 1.0 / (1.0 / 3.0 + 0.01)

    def fn(pts):
        v = pts[:, 0] ** 2
        v += 0.01
        v *= c
        return v

    def grad_fn(pts):
        return (2.0 * c * pts[:, 0])[:, None]

    return AnalyticField(Domain.unit_interval(), fn, grad_fn, floor=c * 0.01, label="quadratic")


def _bump(pts: np.ndarray, a: float, b: float, gradient: bool = False):
    """Compactly supported bump f = exp(-1/(1 - u)), u = |z|^2, z = a*x - b;
    with ``gradient``, the pair (f, grad f), grad f = -2a f z / (1 - u)^2.

    Computed in place on the n-sized columns it makes: u column by column
    (the same additions as np.sum(z * z, axis=1)), then the formulas on every
    point, whose results outside the support (overflow, or 0/0 on its rim)
    are then set to zero.  Each inside result is the one the formulas give
    on the gathered inside points; a masked gather/scatter or a where= loop
    would give the same, but runs several times slower when the support
    holds a scattered part of the swarm."""
    # z is kept only for the gradient; for values, one column holds each
    # z_j and then its square in turn
    z = np.empty(pts.shape, order="F") if gradient else None
    u = col = sq = None
    for j in range(pts.shape[1]):
        col = np.multiply(pts[:, j], a, out=col if z is None else z[:, j])
        col -= b
        if u is None:
            u = col * col
        else:
            sq = np.multiply(col, col, out=col if z is None else sq)
            u += sq
    outside = ~(u < 1.0)  # NaN lies outside too
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.subtract(1.0, u, out=u)
        f = np.divide(-1.0, u, out=None if gradient else u)
        np.exp(f, out=f)
        np.copyto(f, 0.0, where=outside)
        if not gradient:
            return f
        scale = np.multiply(-2.0 * a, f)
        u *= u
        scale /= u
    for j in range(z.shape[1]):
        g = z[:, j]  # a view: the gradient is made in place on z
        g *= scale
        np.copyto(g, 0.0, where=outside)
    return f, z


def two_bump_field(background: float = 0.01) -> AnalyticField:
    """2D field on the unit square: broad bump at (0.5, 0.5) minus a narrow
    dip at (1/3, 1/3), on a small constant background level.

    The raw bump difference undershoots zero in a small disc around the dip
    center, so values are clipped below at the background level there; the
    clip keeps the field strictly positive (floor = ``background``) without
    changing it anywhere the difference is nonnegative.
    """
    if background <= 0:
        raise ValueError("background level must be positive")
    a1, b1 = 2.0, 1.0
    a2, b2 = 6.0, 2.0

    def fn(pts):
        f = _bump(pts, a1, b1)
        f -= _bump(pts, a2, b2)
        np.maximum(f, 0.0, out=f)
        f += background
        return f

    def grad_fn(pts):
        f, grad = _bump(pts, a1, b1, gradient=True)
        f2, g2 = _bump(pts, a2, b2, gradient=True)
        f -= f2
        grad -= g2
        clipped = f <= 0.0
        for j in range(grad.shape[1]):
            np.copyto(grad[:, j], 0.0, where=clipped)
        return grad

    return AnalyticField(
        Domain.unit_square(), fn, grad_fn, floor=background, label="two_bump"
    )


# ---------------------------------------------------------------------------
# field operations


def field_mass(field: ScalarField, resolution: int = 1024) -> float:
    """Midpoint-rule integral of the field over its domain."""
    if field.domain.dim == 2:
        resolution = min(resolution, 512)
    grid = Grid(field.domain, (resolution,) * field.domain.dim)
    vals = field.eval(grid.center_points())
    return float(vals.sum() * grid.cell_volume)


def normalize(field: ScalarField, resolution: int = 1024) -> ScalarField:
    """Scale a field to unit mass (midpoint quadrature at the given resolution)."""
    return field.scaled(1.0 / field_mass(field, resolution))


# ---------------------------------------------------------------------------
# control laws


@dataclass(frozen=True)
class ControlLaws:
    """Coefficient functions of the agent process.

    motion: (n, d) points -> (D, a), both from one evaluation of the field:
        D the diffusion coefficient, positive, an (n,) array; a the drift
        velocity, an (n, d) array, or None for zero drift.
    H: deactivation rate (active agents stop at rate H(x)), (n, d) points ->
        (n,), or None for zero.
    k: reactivation rate of stopped agents, nonnegative scalar.
    """

    motion: Callable[[np.ndarray], tuple[np.ndarray, Optional[np.ndarray]]]
    H: Optional[Callable[[np.ndarray], np.ndarray]] = None
    k: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("reactivation rate k must be nonnegative")

    @property
    def switching(self) -> bool:
        return self.H is not None


def diffusion_coverage_law(field: ScalarField, c1: float, c2: float = 0.0) -> ControlLaws:
    """Diffusion-driven coverage: D = c1/sqrt(F) + c2, a = c2*D*grad(F)/F, H = 0.

    The mean-field flux is grad(w*y) - a*y with w = D^2, so y proportional to
    F is stationary when a = grad(w*F)/F; for this D that is c2*D*grad(F)/F.
    With c2 = 0 there is no drift: D^2*F = c1^2 is constant.
    """
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    if c2 < 0:
        raise ValueError("c2 must be nonnegative")

    # in place on the square root, which the law owns (the field's values
    # may be a view of the points); adding c2 = 0 would change no bit
    def motion(pts):
        F = field.eval(pts)
        D = np.sqrt(F)
        np.divide(c1, D, out=D)
        if not c2:
            return D, None
        D += c2
        s = D * c2
        s /= F
        return D, s[:, None] * field.gradient(pts)

    return ControlLaws(motion)


def reaction_coverage_law(field: ScalarField, c1: float, c2: float, k: float = 1.0) -> ControlLaws:
    """Stop-and-go coverage: D = c1 constant, a = 0, H = c2*F, reactivation k.

    Agents diffuse uniformly but pause at a rate proportional to the field,
    which biases time spent toward high-field regions.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    if k <= 0:
        raise ValueError("reactivation rate k must be positive")

    def H(pts):
        return c2 * field.eval(pts)

    return ControlLaws(constant_diffusion_law(c1).motion, H=H, k=k)


def constant_diffusion_law(D0: float) -> ControlLaws:
    """Homogeneous random walk with diffusion coefficient D0."""
    if D0 <= 0:
        raise ValueError("diffusion coefficient must be positive")

    def motion(pts):
        return np.full(pts.shape[0], D0), None

    return ControlLaws(motion)


# ---------------------------------------------------------------------------
# CSV interchange for grid-sampled fields


def save_field_csv(field: GridField, path) -> None:
    """Write node samples as CSV with header x[,y],value, row-major (x outer)."""
    if len(field.axes) == 1:
        write_csv(path, "x,value", "%.17g,%.17g", field.axes[0], field.values)
    else:
        xs, ys = field.axes
        columns = np.repeat(xs, len(ys)), np.tile(ys, len(xs)), field.values.ravel()
        write_csv(path, "x,y,value", "%.17g,%.17g,%.17g", *columns)


def load_field_csv(path) -> GridField:
    """Read a field CSV (header x[,y],value) into a GridField.

    The node coordinates must form a complete uniform grid; duplicates, gaps,
    nonuniform spacing, or nonpositive values are load errors.
    """
    with open(path) as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        cols = header.split(",")
        if cols not in (["x", "value"], ["x", "y", "value"]):
            raise ValueError(f"unrecognized field CSV header: {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(cols):
        raise ValueError("field CSV row width does not match header")
    if len(cols) == 2:
        xs = np.unique(data[:, 0])
        if len(xs) != data.shape[0]:
            raise ValueError("duplicate x coordinates in field CSV")
        order = np.argsort(data[:, 0])
        return GridField((xs,), data[order, 1])
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    if len(xs) * len(ys) != data.shape[0]:
        raise ValueError("field CSV does not cover a complete grid")
    ix = np.searchsorted(xs, data[:, 0])
    iy = np.searchsorted(ys, data[:, 1])
    values = np.full((len(xs), len(ys)), np.nan)
    values[ix, iy] = data[:, 2]
    if np.isnan(values).any():
        raise ValueError("field CSV does not cover a complete grid")
    return GridField((xs, ys), values)
