"""Finite-volume marching kernel for the mean-field equation, in any dimension.

Flux form on a uniform cell grid with zero-flux walls: the diffusive face flux
is the difference quotient of g = w*y across the face, the advective face flux
is upwind with face-averaged velocity, and boundary faces carry zero flux, so
total mass telescopes exactly.  Each control input is one term of the one
march: drift and the stop/go exchange are added only when present.  The 1D
diffusion step also has a spectral form, diffusion_eigenpairs_1d, for powers
of the step without marching.
"""

from __future__ import annotations

import numpy as np

# the closed form's eigenvector matrix is dense, 8 n^2 bytes: 134 MB here
MAX_EIGEN_CELLS = 4096


def march(u1, u2, w, a, H, k, spacing, dt, nsteps):
    """nsteps explicit steps of

        du1/dt = div(grad(w*u1) - a*u1) + k*u2 - H*u1,   du2/dt = H*u1 - k*u2

    with spacing the cell width per axis.  Drift is added when a (one
    component per axis) is not None, the stop/go exchange when the passive
    state u2 is not None.  Returns the new (u1, u2), u2 staying None without a
    passive state; the inputs are left unchanged.
    """
    u1 = u1.copy()
    if u2 is not None:
        u2 = u2.copy()
    axes = []
    for ax, h in enumerate(spacing):
        lead = (slice(None),) * ax
        lo, hi, inner = lead + (slice(None, -1),), lead + (slice(1, None),), lead + (slice(1, -1),)
        faces = list(u1.shape)
        faces[ax] += 1
        upwind = None
        if a is not None:
            af = 0.5 * (a[ax][lo] + a[ax][hi])
            upwind = (af, af > 0.0, np.zeros(faces))
        axes.append((h, lo, hi, inner, np.zeros(faces), upwind))
    for _ in range(nsteps):
        g = w * u1
        div = None
        for h, lo, hi, inner, q, upwind in axes:
            np.subtract(g[hi], g[lo], out=q[inner])
            q[inner] /= h
            term = q[hi] - q[lo]
            term /= h
            if upwind is not None:
                af, forward, qa = upwind
                np.multiply(af, np.where(forward, u1[lo], u1[hi]), out=qa[inner])
                flow = qa[hi] - qa[lo]
                flow /= h
                term -= flow
            if div is None:
                div = term
            else:
                div += term
        if u2 is None:
            div *= dt
            u1 += div
        else:
            trans = H * u1
            back = k * u2
            u1, u2 = u1 + dt * (div + (back - trans)), u2 + dt * (trans - back)
    return u1, u2


def diffusion_eigenpairs_1d(r):
    """Eigenpairs (mu ascending, V orthonormal columns) of the symmetric
    tridiagonal M = I + R^1/2 T R^1/2, with R = diag(r), r = dt*w/h^2 per cell
    and T the zero-flux second difference.

    The step march takes without drift or passive state is S = I + T R =
    R^-1/2 M R^1/2, so S^s = R^-1/2 V diag(mu^s) V^T R^1/2 for every s.  V is
    dense, so more than MAX_EIGEN_CELLS cells raise ValueError before it is
    allocated.
    """
    if r.shape[0] > MAX_EIGEN_CELLS:
        raise ValueError(
            f"{r.shape[0]} cells exceed the closed form's limit of {MAX_EIGEN_CELLS}"
        )
    # imported here: scipy takes most of the package's import time
    from scipy.linalg import eigh_tridiagonal

    neighbours = np.full(r.shape[0], 2.0)
    neighbours[0] -= 1.0
    neighbours[-1] -= 1.0
    return eigh_tridiagonal(1.0 - neighbours * r, np.sqrt(r[:-1] * r[1:]))
