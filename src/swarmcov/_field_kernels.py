"""Multilinear interpolation kernels for grid-sampled fields (vectorized numpy).

Corners are gathered from the flat node array and accumulated in place.
"""

from __future__ import annotations

import numpy as np


def _cells(q, lo, h, n):
    """Offset within its cell (in cell widths) and lower node of each query."""
    s = np.asarray(q, dtype=float) - lo
    s /= h
    np.clip(s, 0.0, n - 1.0, out=s)
    i = np.minimum(s.astype(np.int64), n - 2)
    s -= i
    return s, i


def interp1(xq, lo, h, values):
    f, i = _cells(xq, lo, h, values.shape[0])
    out = values.take(i)
    out *= 1.0 - f
    out += values.take(i + 1) * f
    return out


def interp2(xq, yq, lox, hx, loy, hy, values):
    nx, ny = values.shape
    fx, i = _cells(xq, lox, hx, nx)
    fy, j = _cells(yq, loy, hy, ny)
    gx = 1.0 - fx
    gy = 1.0 - fy
    i *= ny
    i += j  # flat index of the lower corner
    flat = values.ravel()
    out = flat.take(i)
    out *= gx
    out *= gy
    # ((v00 gx gy + v10 fx gy) + v01 gx fy) + v11 fx fy; j holds each corner's index
    for offset, wx, wy in ((ny, fx, gy), (1, gx, fy), (ny + 1, fx, fy)):
        term = flat.take(np.add(i, offset, out=j))
        term *= wx
        term *= wy
        out += term
    return out
