"""Hot kernels for the agent process: position updates, reflection, binning.

Vectorized numpy over a block of agents.  The caller steps the swarm in
blocks of ``BLOCK`` agents, and ``bin_counts`` bins it in blocks of the same
size, so every temporary a kernel makes is block-sized and stays in cache;
each agent's result is the same, bit for bit, whatever the block.

Buffers: a kernel reads its array arguments and writes none of them, except
the arrays it is documented to update (``step_switching``'s ``pos`` and
``modes``) and an ``out=`` buffer its caller hands it.  An ``out=`` buffer is
(n, d) float64 of any layout; it may be ``pos`` itself (an in-place step) but
must share no memory with the other arguments, and the kernel overwrites all
of it.  Every intermediate is computed in place on an array the kernel made
itself: an active step allocates the scaled D and one n-sized column (two
with drift), and no (n, d) array unless it is given no ``out=``.
"""

from __future__ import annotations

import numpy as np

# agents per block.  Smaller blocks pay the per-call cost of the laws and
# kernels more often; larger ones let the drift law's block-sized
# temporaries (128 KB per column at this size) outgrow a 2 MB L2 cache, and
# the run's peak memory grows with them.  A 1e5-agent swarm takes 7 blocks.
BLOCK = 16384


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
    are written into ``out`` when it is given (see the module docstring; it
    may be ``pos``) and into a new column-major array otherwise; D, drift
    and noise are only read, and so is pos unless it is ``out``.
    """
    n, d = pos.shape
    if out is None:
        out = np.empty((n, d), order="F")
    scale = D * np.sqrt(2.0 * dt)
    term = tmp = None
    for j in range(d):
        term = np.multiply(scale, noise[:, j], out=term)
        col = out[:, j]
        if drift is None:
            np.add(pos[:, j], term, out=col)
        else:
            # (pos + drift dt) + noise term, as the unfused formula adds them
            tmp = np.multiply(drift[:, j], dt, out=tmp)
            np.add(pos[:, j], tmp, out=col)
            col += term
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
    """Cell counts on a uniform grid; boundary points go to the interior cell.

    ``pos`` is (n, d) of any layout, binned ``BLOCK`` rows at a time."""
    n, d = pos.shape
    size = int(np.prod(shape))
    counts = np.zeros(size, dtype=np.int64)
    for start in range(0, n, BLOCK):
        block = pos[start : start + BLOCK]
        flat = np.zeros(block.shape[0], dtype=np.int64)
        stride = 1
        for j in range(d - 1, -1, -1):
            nj = shape[j]
            h = (hi[j] - lo[j]) / nj
            idx = np.floor((block[:, j] - lo[j]) / h).astype(np.int64)
            np.clip(idx, 0, nj - 1, out=idx)
            flat += idx * stride
            stride *= nj
        counts += np.bincount(flat, minlength=size)
    return counts.reshape(tuple(shape))
