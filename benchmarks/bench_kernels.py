#!/usr/bin/env python3
"""Time the hot kernels in both lanes: numba-compiled loops vs pure numpy.

The package picks one lane at import (``SWARMCOV_NO_NUMBA=1`` forces numpy);
the ``*_numpy`` twins stay importable either way, so a single process can
time both and report the speedup.  Results are medians over repeats, after a
warm-up call that absorbs JIT compilation.  When numba imports, each row
then checks that the two lanes give the same bits: the returned arrays, or
for the in-place switching step the mutated copies of pos and modes.
Without numba only the numpy column is timed and the lanes are not compared.
In either lane, the batched 1D march must equal the single-column marches
bitwise.

Usage: python3 benchmarks/bench_kernels.py [--agents N] [--cells N] [--steps N]
       [--repeats N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from swarmcov import NUMBA_ENABLED
from swarmcov import _pde_kernels as pk
from swarmcov import _sde_kernels as sk


def median_time(fn, repeats: int) -> float:
    fn()  # warm-up (JIT compile, cache touch)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--agents", type=int, default=200_000)
    ap.add_argument("--cells", type=int, default=4096)
    ap.add_argument("--steps", type=int, default=200, help="march steps per PDE timing")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    n, d = args.agents, 2
    pos = rng.random((n, d))
    noise = rng.standard_normal((n, d))
    unif = rng.random((n, 2))
    modes = (rng.random(n) < 0.5).astype(np.uint8)
    D = np.full(n, 0.05)
    drift = np.zeros((n, d))
    H = np.full(n, 0.7)
    lo = np.zeros(d)
    hi = np.ones(d)
    dt = 1e-3

    nc = args.cells
    y1 = rng.random(nc) + 0.5
    w1 = rng.random(nc) + 0.5
    h = 1.0 / nc
    dt1 = 0.9 * h * h / (2.0 * 2.0 * w1.max())
    n2 = int(np.sqrt(nc))
    y2 = rng.random((n2, n2)) + 0.5
    w2 = rng.random((n2, n2)) + 0.5
    h2 = 1.0 / n2
    dt2 = 0.9 / (2.0 * 2.0 * w2.max() * 2.0 / (h2 * h2))
    # the inverse solve's assembly: 100 cells, one column per hat function
    nb = 100
    nbasis = 10  # basis_size of the bundled est_*.cfg
    yb = rng.random((nb, nbasis)) + 0.5
    wb = rng.random(nb) + 0.5
    hb = 1.0 / nb
    dtb = 0.9 * hb * hb / (2.0 * wb.max())

    def switching(kernel):
        # the kernel updates pos and modes in place: step copies, return them
        def run():
            p, m = pos.copy(), modes.copy()
            kernel(p, m, D, drift, H, 1.0, dt, noise, unif, lo, hi)
            return p, m

        return run

    def columns(march):
        # one march per column, stacked as the batched march returns them
        return lambda: np.stack(
            [march(yb[:, j], wb, hb, dtb, args.steps) for j in range(nbasis)], axis=1
        )

    single = f"FV march 1D, {nbasis} single ({nb} cells)"
    batched = f"FV march 1D, batched ({nb}x{nbasis} cells)"

    cases = [
        (
            f"SDE active step ({n:,} agents, 2D)",
            lambda: sk.step_active_numpy(pos, D, drift, dt, noise, lo, hi),
            (lambda: sk.step_active_jit(pos, D, drift, dt, noise, lo, hi)) if NUMBA_ENABLED else None,
        ),
        (
            f"SDE switching step ({n:,} agents, 2D)",
            switching(sk.step_switching_numpy),
            switching(sk.step_switching_jit) if NUMBA_ENABLED else None,
        ),
        (
            f"histogram binning ({n:,} points, 50x50)",
            lambda: sk.bin_counts_numpy(pos, lo, hi, (50, 50)),
            (lambda: sk._bin_counts_loop_wrap(pos, lo, hi, (50, 50))) if NUMBA_ENABLED else None,
        ),
        (
            f"FV diffusion march 1D ({nc} cells x {args.steps} steps)",
            lambda: pk.march_diffusion_1d_numpy(y1, w1, h, dt1, args.steps),
            (lambda: pk.march_diffusion_1d_jit(y1, w1, h, dt1, args.steps)) if NUMBA_ENABLED else None,
        ),
        (
            single,
            columns(pk.march_diffusion_1d_numpy),
            columns(pk.march_diffusion_1d_jit) if NUMBA_ENABLED else None,
        ),
        (
            batched,
            lambda: pk.march_diffusion_1d_numpy(yb, wb, hb, dtb, args.steps),
            (lambda: pk.march_diffusion_1d_jit(yb, wb, hb, dtb, args.steps)) if NUMBA_ENABLED else None,
        ),
        (
            f"FV diffusion march 2D ({n2}x{n2} cells x {args.steps} steps)",
            lambda: pk.march_diffusion_2d_numpy(y2, w2, h2, h2, dt2, args.steps),
            (lambda: pk.march_diffusion_2d_jit(y2, w2, h2, h2, dt2, args.steps)) if NUMBA_ENABLED else None,
        ),
    ]

    lane = "numba" if NUMBA_ENABLED else "numpy (numba unavailable or disabled)"
    print(f"active lane: {lane}")
    print(f"{'kernel':<45} {'numpy':>10} {'numba':>10} {'speedup':>8}")
    t_numpy = {}
    for label, numpy_fn, jit_fn in cases:
        t_np = t_numpy[label] = median_time(numpy_fn, args.repeats)
        if jit_fn is None:
            print(f"{label:<45} {t_np * 1e3:>8.2f}ms {'-':>10} {'-':>8}")
            continue
        t_jit = median_time(jit_fn, args.repeats)
        print(f"{label:<45} {t_np * 1e3:>8.2f}ms {t_jit * 1e3:>8.2f}ms {t_np / t_jit:>7.1f}x")

        got_np = numpy_fn()
        got_jit = jit_fn()
        if isinstance(got_np, tuple):
            same = all(np.array_equal(a, b) for a, b in zip(got_np, got_jit))
        else:
            same = np.array_equal(got_np, got_jit)
        if not same:
            raise SystemExit(f"lane mismatch in {label}: numpy and numba outputs differ")

    if not np.array_equal(pk.march_diffusion_1d(yb, wb, hb, dtb, args.steps),
                          columns(pk.march_diffusion_1d)()):
        raise SystemExit("batched 1D march differs from the single-column marches")
    print(f"batched 1D march: {t_numpy[single] / t_numpy[batched]:.1f}x faster than "
          f"{nbasis} single-column marches (numpy lane)")


if __name__ == "__main__":
    main()
