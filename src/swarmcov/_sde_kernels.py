"""Hot kernels for the agent process: position updates, reflection, binning.

Vectorized numpy over the whole swarm, one call per step.  Buffers: a kernel
reads its array arguments and writes none of them, except the arrays it is
documented to update (``step_switching``'s ``pos`` and ``modes``) and an
``out=`` buffer its caller hands it.  An ``out=`` buffer is (n, d) float64 of
any layout and must share no memory with the other arguments; the kernel
overwrites all of it.  Every intermediate is computed in place on an array
the kernel made itself: given ``out=``, an active step allocates the scaled
D and, with drift, one more n-sized column, and no (n, d) array.
"""

from __future__ import annotations

import numpy as np


def _fold(r, lo, hi):
    """Fold (n, d) positions into [lo, hi] per axis, in place.

    Only the coordinates outside the box are folded: for 0 <= x - lo <= span,
    mod(x - lo, 2 span) is x - lo exactly, so the result is bitwise the same
    as folding every coordinate.  Each axis is tested with its min and max
    before a mask is built; NaN fails that test, and the mask leaves it as it
    is.
    """
    for j in range(r.shape[1]):
        c = r[:, j]  # a view: folded in place
        c -= lo[j]
        s = hi[j] - lo[j]
        if c.size and not (c.min() >= 0.0 and c.max() <= s):
            out = (c < 0.0) | (c > s)
            m = np.mod(c[out], 2.0 * s)
            c[out] = np.where(m > s, 2.0 * s - m, m)
        c += lo[j]


def reflect_points(x, lo, hi):
    """Fold (n, d) positions into [lo, hi] per axis (specular boundary); x is
    left as it is and the folded copy returned."""
    r = np.array(x, dtype=float)
    _fold(r, lo, hi)
    return r


def step_active(pos, D, drift, dt, noise, lo, hi, out=None):
    """One step for an all-active population; returns the new positions.

    ``drift`` is an (n, d) array, or None for zero drift.  The new positions
    are written into ``out`` when it is given (see the module docstring) and
    into a new column-major array otherwise; pos, D, drift and noise are only
    read.
    """
    n, d = pos.shape
    if out is None:
        out = np.empty((n, d), order="F")
    scale = D * np.sqrt(2.0 * dt)
    tmp = None
    for j in range(d):
        col = out[:, j]
        np.multiply(scale, noise[:, j], out=col)
        if drift is None:
            col += pos[:, j]
        else:
            # (pos + drift dt) + noise term, as the unfused formula adds them
            tmp = np.multiply(drift[:, j], dt, out=tmp)
            tmp += pos[:, j]
            col += tmp
    _fold(out, lo, hi)
    return out


def step_switching(pos, modes, D, drift, H, k, dt, noise, unif, lo, hi, out=None):
    """One step with stop-and-go switching; updates pos and modes in place.

    Active agents move and may deactivate with probability H(x)*dt (H taken at
    the pre-step position); passive agents hold position and may reactivate
    with probability k*dt.  ``out``, when given, receives the positions every
    agent would move to (see the module docstring); it is scratch to the
    caller.
    """
    active = modes == 1
    moved = step_active(pos, D, drift, dt, noise, lo, hi, out=out)
    for j in range(pos.shape[1]):
        np.copyto(pos[:, j], moved[:, j], where=active)
    stop = unif[:, 0] < H * dt
    stop &= active
    go = unif[:, 1] < k * dt
    go &= ~active
    modes[stop] = 0
    modes[go] = 1


def bin_counts(pos, lo, hi, shape):
    """Cell counts on a uniform grid; boundary points go to the interior cell."""
    n, d = pos.shape
    flat = np.zeros(n, dtype=np.int64)
    stride = 1
    for j in range(d - 1, -1, -1):
        nj = shape[j]
        h = (hi[j] - lo[j]) / nj
        idx = np.floor((pos[:, j] - lo[j]) / h).astype(np.int64)
        np.clip(idx, 0, nj - 1, out=idx)
        flat += idx * stride
        stride *= nj
    counts = np.bincount(flat, minlength=int(np.prod(shape)))
    return counts.reshape(tuple(shape))
