"""Hot kernels for the agent process: position updates, reflection, binning.

Vectorized numpy over the whole swarm, one call per step.
"""

from __future__ import annotations

import numpy as np


def reflect_numpy(x, lo, hi):
    """Fold (n, d) positions into [lo, hi] per axis (specular boundary).

    Only the coordinates outside the box are folded: for 0 <= x - lo <= span,
    mod(x - lo, 2 span) is x - lo exactly, so the result is bitwise the same
    as folding every coordinate.
    """
    r = np.asarray(x, dtype=float) - lo
    span = hi - lo
    for j in range(r.shape[1]):
        c = r[:, j]  # a view: folded in place
        s = span[j]
        out = (c < 0.0) | (c > s)
        if out.any():
            m = np.mod(c[out], 2.0 * s)
            c[out] = np.where(m > s, 2.0 * s - m, m)
    r += lo
    return r


def step_active_numpy(pos, D, drift, dt, noise, lo, hi):
    """One step for an all-active population; returns new positions.

    ``drift`` is an (n, d) array, or None for zero drift.
    """
    sig = np.sqrt(2.0 * dt)
    term = (D * sig)[:, None] * noise
    if drift is None:
        term += pos
        return reflect_numpy(term, lo, hi)
    return reflect_numpy(pos + drift * dt + term, lo, hi)


def step_switching_numpy(pos, modes, D, drift, H, k, dt, noise, unif, lo, hi):
    """One step with stop-and-go switching; updates pos and modes in place.

    Active agents move and may deactivate with probability H(x)*dt (H taken at
    the pre-step position); passive agents hold position and may reactivate
    with probability k*dt.
    """
    active = modes == 1
    moved = step_active_numpy(pos, D, drift, dt, noise, lo, hi)
    pos[active] = moved[active]
    deact = active & (unif[:, 0] < H * dt)
    react = ~active & (unif[:, 1] < k * dt)
    modes[deact] = 0
    modes[react] = 1


def bin_counts_numpy(pos, lo, hi, shape):
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


reflect_points = reflect_numpy
step_active = step_active_numpy
step_switching = step_switching_numpy
bin_counts = bin_counts_numpy
