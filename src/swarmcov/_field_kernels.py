"""Multilinear interpolation kernels for grid-sampled fields (vectorized numpy)."""

from __future__ import annotations

import numpy as np


def interp1_numpy(xq, lo, h, values):
    n = values.shape[0]
    s = np.clip((np.asarray(xq, dtype=float) - lo) / h, 0.0, n - 1.0)
    i = np.minimum(s.astype(np.int64), n - 2)
    f = s - i
    return values[i] * (1.0 - f) + values[i + 1] * f


def interp2_numpy(xq, yq, lox, hx, loy, hy, values):
    nx, ny = values.shape
    sx = np.clip((np.asarray(xq, dtype=float) - lox) / hx, 0.0, nx - 1.0)
    sy = np.clip((np.asarray(yq, dtype=float) - loy) / hy, 0.0, ny - 1.0)
    i = np.minimum(sx.astype(np.int64), nx - 2)
    j = np.minimum(sy.astype(np.int64), ny - 2)
    fx = sx - i
    fy = sy - j
    v00 = values[i, j]
    v10 = values[i + 1, j]
    v01 = values[i, j + 1]
    v11 = values[i + 1, j + 1]
    return (
        v00 * (1.0 - fx) * (1.0 - fy)
        + v10 * fx * (1.0 - fy)
        + v01 * (1.0 - fx) * fy
        + v11 * fx * fy
    )


interp1 = interp1_numpy
interp2 = interp2_numpy
