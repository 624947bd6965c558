"""Finite-volume marching kernels (diffusion and advection-diffusion-reaction).

Flux form on a uniform cell grid with zero-flux walls: the diffusive face flux
is the difference quotient of g = w*y across the face, the advective face flux
is upwind with face-averaged velocity, and boundary faces carry zero flux, so
total mass telescopes exactly.  Numba and numpy variants compute identical
floating-point sequences.
"""

from __future__ import annotations

import numpy as np

from ._accel import NUMBA_ENABLED, njit


# -- pure diffusion, 1D ------------------------------------------------------


def march_diffusion_1d_numpy(y, w, h, dt, nsteps):
    """March a (cells,) state, or a (cells, B) stack of states column by
    column; each element sees the same operations in the same order either
    way, so a marched column is bitwise equal to marching it alone."""
    out = y.copy()
    n = out.shape[0]
    w = w.reshape((n,) + (1,) * (out.ndim - 1))
    g = np.empty_like(out)
    q = np.zeros((n + 1,) + out.shape[1:])
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


def _march_diffusion_1d_loop(y, w, h, dt, nsteps):
    out = y.copy()
    n = out.shape[0]
    m = out.size // n if n else 0
    u = out.reshape((n, m))  # a view: (cells,) runs as one column
    g = np.empty((n, m))
    q = np.zeros((n + 1, m))
    for _ in range(nsteps):
        for i in range(n):
            for j in range(m):
                g[i, j] = w[i] * u[i, j]
        for i in range(1, n):
            for j in range(m):
                q[i, j] = (g[i, j] - g[i - 1, j]) / h
        for i in range(n):
            for j in range(m):
                u[i, j] = u[i, j] + dt * ((q[i + 1, j] - q[i, j]) / h)
    return out


# -- pure diffusion, 2D ------------------------------------------------------


def march_diffusion_2d_numpy(y, w, hx, hy, dt, nsteps):
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


def _march_diffusion_2d_loop(y, w, hx, hy, dt, nsteps):
    out = y.copy()
    nx, ny = out.shape
    g = np.empty((nx, ny))
    div = np.empty((nx, ny))
    for _ in range(nsteps):
        for i in range(nx):
            for j in range(ny):
                g[i, j] = w[i, j] * out[i, j]
        for i in range(nx):
            for j in range(ny):
                qxp = (g[i + 1, j] - g[i, j]) / hx if i < nx - 1 else 0.0
                qxm = (g[i, j] - g[i - 1, j]) / hx if i > 0 else 0.0
                qyp = (g[i, j + 1] - g[i, j]) / hy if j < ny - 1 else 0.0
                qym = (g[i, j] - g[i, j - 1]) / hy if j > 0 else 0.0
                div[i, j] = (qxp - qxm) / hx + (qyp - qym) / hy
        for i in range(nx):
            for j in range(ny):
                out[i, j] = out[i, j] + dt * div[i, j]
    return out


# -- advection-diffusion-reaction, 1D ----------------------------------------


def march_adr_1d_numpy(y1, y2, w, ax, H, k, h, dt, nsteps):
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


def _march_adr_1d_loop(y1, y2, w, ax, H, k, h, dt, nsteps):
    u1 = y1.copy()
    u2 = y2.copy()
    n = u1.shape[0]
    g = np.empty(n)
    qd = np.zeros(n + 1)
    qa = np.zeros(n + 1)
    new1 = np.empty(n)
    new2 = np.empty(n)
    for _ in range(nsteps):
        for i in range(n):
            g[i] = w[i] * u1[i]
        for i in range(1, n):
            qd[i] = (g[i] - g[i - 1]) / h
            af = 0.5 * (ax[i - 1] + ax[i])
            up = u1[i - 1] if af > 0.0 else u1[i]
            qa[i] = af * up
        for i in range(n):
            div = (qd[i + 1] - qd[i]) / h - (qa[i + 1] - qa[i]) / h
            trans = H[i] * u1[i]
            back = k * u2[i]
            new1[i] = u1[i] + dt * (div + (back - trans))
            new2[i] = u2[i] + dt * (trans - back)
        for i in range(n):
            u1[i] = new1[i]
            u2[i] = new2[i]
    return u1, u2


# -- advection-diffusion-reaction, 2D ----------------------------------------


def march_adr_2d_numpy(y1, y2, w, ax, ay, H, k, hx, hy, dt, nsteps):
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


def _march_adr_2d_loop(y1, y2, w, ax, ay, H, k, hx, hy, dt, nsteps):
    u1 = y1.copy()
    u2 = y2.copy()
    nx, ny = u1.shape
    g = np.empty((nx, ny))
    new1 = np.empty((nx, ny))
    new2 = np.empty((nx, ny))
    for _ in range(nsteps):
        for i in range(nx):
            for j in range(ny):
                g[i, j] = w[i, j] * u1[i, j]
        for i in range(nx):
            for j in range(ny):
                qdxp = (g[i + 1, j] - g[i, j]) / hx if i < nx - 1 else 0.0
                qdxm = (g[i, j] - g[i - 1, j]) / hx if i > 0 else 0.0
                qdyp = (g[i, j + 1] - g[i, j]) / hy if j < ny - 1 else 0.0
                qdym = (g[i, j] - g[i, j - 1]) / hy if j > 0 else 0.0
                if i < nx - 1:
                    afx = 0.5 * (ax[i, j] + ax[i + 1, j])
                    qaxp = afx * (u1[i, j] if afx > 0.0 else u1[i + 1, j])
                else:
                    qaxp = 0.0
                if i > 0:
                    afx = 0.5 * (ax[i - 1, j] + ax[i, j])
                    qaxm = afx * (u1[i - 1, j] if afx > 0.0 else u1[i, j])
                else:
                    qaxm = 0.0
                if j < ny - 1:
                    afy = 0.5 * (ay[i, j] + ay[i, j + 1])
                    qayp = afy * (u1[i, j] if afy > 0.0 else u1[i, j + 1])
                else:
                    qayp = 0.0
                if j > 0:
                    afy = 0.5 * (ay[i, j - 1] + ay[i, j])
                    qaym = afy * (u1[i, j - 1] if afy > 0.0 else u1[i, j])
                else:
                    qaym = 0.0
                divx = (qdxp - qdxm) / hx - (qaxp - qaxm) / hx
                divy = (qdyp - qdym) / hy - (qayp - qaym) / hy
                trans = H[i, j] * u1[i, j]
                back = k * u2[i, j]
                new1[i, j] = u1[i, j] + dt * ((divx + divy) + (back - trans))
                new2[i, j] = u2[i, j] + dt * (trans - back)
        for i in range(nx):
            for j in range(ny):
                u1[i, j] = new1[i, j]
                u2[i, j] = new2[i, j]
    return u1, u2


if NUMBA_ENABLED:
    _jit = njit(cache=True, nogil=True)
    march_diffusion_1d_jit = _jit(_march_diffusion_1d_loop)
    march_diffusion_2d_jit = _jit(_march_diffusion_2d_loop)
    march_adr_1d_jit = _jit(_march_adr_1d_loop)
    march_adr_2d_jit = _jit(_march_adr_2d_loop)

    march_diffusion_1d = march_diffusion_1d_jit
    march_diffusion_2d = march_diffusion_2d_jit
    march_adr_1d = march_adr_1d_jit
    march_adr_2d = march_adr_2d_jit
else:
    march_diffusion_1d = march_diffusion_1d_numpy
    march_diffusion_2d = march_diffusion_2d_numpy
    march_adr_1d = march_adr_1d_numpy
    march_adr_2d = march_adr_2d_numpy
