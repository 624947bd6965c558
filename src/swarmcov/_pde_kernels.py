"""Finite-volume marching kernels (diffusion and advection-diffusion-reaction).

Flux form on a uniform cell grid with zero-flux walls: the diffusive face flux
is the difference quotient of g = w*y across the face, the advective face flux
is upwind with face-averaged velocity, and boundary faces carry zero flux, so
total mass telescopes exactly.  The 1D diffusion step also has a spectral
form, diffusion_eigenpairs_1d, for powers of the step without marching.
"""

from __future__ import annotations

import numpy as np


# -- pure diffusion, 1D ------------------------------------------------------


def march_diffusion_1d(y, w, h, dt, nsteps):
    out = y.copy()
    g = np.empty_like(out)
    q = np.zeros(out.shape[0] + 1)
    div = np.empty_like(out)
    for _ in range(nsteps):
        np.multiply(w, out, out=g)
        np.subtract(g[1:], g[:-1], out=q[1:-1])
        q[1:-1] /= h
        np.subtract(q[1:], q[:-1], out=div)
        div /= h
        div *= dt
        out += div
    return out


def diffusion_eigenpairs_1d(r):
    """Eigenpairs (mu ascending, V orthonormal columns) of the symmetric
    tridiagonal M = I + R^1/2 T R^1/2, with R = diag(r), r = dt*w/h^2 per cell
    and T the zero-flux second difference.

    The step march_diffusion_1d takes is S = I + T R = R^-1/2 M R^1/2, so
    S^s = R^-1/2 V diag(mu^s) V^T R^1/2 for every s.  V is dense: 8 n^2 bytes.
    """
    # imported here: scipy takes most of the package's import time
    from scipy.linalg import eigh_tridiagonal

    neighbours = np.full(r.shape[0], 2.0)
    neighbours[0] -= 1.0
    neighbours[-1] -= 1.0
    return eigh_tridiagonal(1.0 - neighbours * r, np.sqrt(r[:-1] * r[1:]))


# -- pure diffusion, 2D ------------------------------------------------------


def march_diffusion_2d(y, w, hx, hy, dt, nsteps):
    out = y.copy()
    nx, ny = out.shape
    qx = np.zeros((nx + 1, ny))
    qy = np.zeros((nx, ny + 1))
    for _ in range(nsteps):
        g = w * out
        qx[1:-1, :] = (g[1:, :] - g[:-1, :]) / hx
        qy[:, 1:-1] = (g[:, 1:] - g[:, :-1]) / hy
        divx = (qx[1:, :] - qx[:-1, :]) / hx
        divy = (qy[:, 1:] - qy[:, :-1]) / hy
        out += dt * (divx + divy)
    return out


# -- advection-diffusion-reaction, 1D ----------------------------------------


def march_adr_1d(y1, y2, w, ax, H, k, h, dt, nsteps):
    u1 = y1.copy()
    u2 = y2.copy()
    n = u1.shape[0]
    qd = np.zeros(n + 1)
    qa = np.zeros(n + 1)
    for _ in range(nsteps):
        g = w * u1
        qd[1:-1] = (g[1:] - g[:-1]) / h
        af = 0.5 * (ax[:-1] + ax[1:])
        up = np.where(af > 0.0, u1[:-1], u1[1:])
        qa[1:-1] = af * up
        div = (qd[1:] - qd[:-1]) / h - (qa[1:] - qa[:-1]) / h
        trans = H * u1
        back = k * u2
        u1, u2 = u1 + dt * (div + (back - trans)), u2 + dt * (trans - back)
    return u1, u2


# -- advection-diffusion-reaction, 2D ----------------------------------------


def march_adr_2d(y1, y2, w, ax, ay, H, k, hx, hy, dt, nsteps):
    u1 = y1.copy()
    u2 = y2.copy()
    nx, ny = u1.shape
    qdx = np.zeros((nx + 1, ny))
    qdy = np.zeros((nx, ny + 1))
    qax = np.zeros((nx + 1, ny))
    qay = np.zeros((nx, ny + 1))
    for _ in range(nsteps):
        g = w * u1
        qdx[1:-1, :] = (g[1:, :] - g[:-1, :]) / hx
        qdy[:, 1:-1] = (g[:, 1:] - g[:, :-1]) / hy
        afx = 0.5 * (ax[:-1, :] + ax[1:, :])
        qax[1:-1, :] = afx * np.where(afx > 0.0, u1[:-1, :], u1[1:, :])
        afy = 0.5 * (ay[:, :-1] + ay[:, 1:])
        qay[:, 1:-1] = afy * np.where(afy > 0.0, u1[:, :-1], u1[:, 1:])
        divx = (qdx[1:, :] - qdx[:-1, :]) / hx - (qax[1:, :] - qax[:-1, :]) / hx
        divy = (qdy[:, 1:] - qdy[:, :-1]) / hy - (qay[:, 1:] - qay[:, :-1]) / hy
        trans = H * u1
        back = k * u2
        u1, u2 = u1 + dt * ((divx + divy) + (back - trans)), u2 + dt * (trans - back)
    return u1, u2
