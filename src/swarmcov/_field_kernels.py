"""Multilinear interpolation kernels for grid-sampled fields (vectorized numpy).

The queries are taken in blocks of ``_BLOCK``: a block's corners are gathered
from the flat node array and accumulated in place into its slice of the
result, on temporaries of a few dozen KB that the allocator reuses from block
to block.  So a query of any size allocates its result and nothing else of
its size, and the work stays in cache.  Every value is computed as the
unblocked formula computes it; the queries and node values are only read.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 8192


def _cells(q, lo, h, n):
    """Offset within its cell (in cell widths) and lower node of each query."""
    s = q - lo
    s /= h
    np.clip(s, 0.0, n - 1.0, out=s)
    i = s.astype(np.int64)
    np.minimum(i, n - 2, out=i)
    s -= i
    return s, i


def interp1(xq, lo, h, values):
    xq = np.asarray(xq, dtype=float)
    out = np.empty(xq.shape[0])
    n = values.shape[0]
    for start in range(0, xq.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        f, i = _cells(xq[block], lo, h, n)
        o = values.take(i, out=out[block], mode="clip")  # indices are in range
        w = np.subtract(1.0, f)
        o *= w
        i += 1
        values.take(i, out=w, mode="clip")
        w *= f
        o += w
    return out


def interp2(xq, yq, lox, hx, loy, hy, values):
    xq = np.asarray(xq, dtype=float)
    yq = np.asarray(yq, dtype=float)
    out = np.empty(xq.shape[0])
    nx, ny = values.shape
    flat = values.ravel()
    for start in range(0, xq.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        fx, i = _cells(xq[block], lox, hx, nx)
        fy, j = _cells(yq[block], loy, hy, ny)
        i *= ny
        i += j  # flat index of the lower corner
        # ((v00 gx gy + v10 fx gy) + v01 gx fy) + v11 fx fy, with gx = 1 - fx
        # and gy = 1 - fy made in w when needed; j holds each other corner's
        # index (all in range, so "clip" takes without an internal buffer)
        o = flat.take(i, out=out[block], mode="clip")
        w = np.subtract(1.0, fx)
        o *= w
        np.subtract(1.0, fy, out=w)
        o *= w
        term = flat.take(np.add(i, ny, out=j), mode="clip")
        term *= fx
        term *= w
        o += term
        np.subtract(1.0, fx, out=w)
        for offset, wx, wy in ((1, w, fy), (ny + 1, fx, fy)):
            flat.take(np.add(i, offset, out=j), out=term, mode="clip")
            term *= wx
            term *= wy
            o += term
    return out
