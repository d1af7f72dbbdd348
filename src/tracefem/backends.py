"""The numpy compute kernels.

The three hot kernels: equispaced simplex Lagrange basis evaluation, the
batched 1D root solve used by the mesh deformation, and the symmetric
local-matrix accumulation used by the bilinear-form assembly.  Library
code looks them up on this module at call time (``backends.eval_basis``),
never by ``from ... import``, so a wrapper set on the module sees every call.
"""

from __future__ import annotations

import sys

import numpy as np

ROOT_RTOL = 1e-12   # solve_dh's residual tolerance, relative to max(1, |phihat|)
MAX_NEWTON = 50     # Newton steps before a row falls back to bisection
SCAN = 16           # equispaced intervals of the fallback's bracket search


# pipebench/spans.py is the only caller: its tracer wraps the kernels on this module.
def active():
    return sys.modules[__name__]


def _multi_indices(k: int) -> np.ndarray:
    out = []
    for a0 in range(k, -1, -1):
        for a1 in range(k - a0, -1, -1):
            for a2 in range(k - a0 - a1, -1, -1):
                out.append((a0, a1, a2, k - a0 - a1 - a2))
    return np.array(out, dtype=np.int64)


_MI_CACHE: dict[int, np.ndarray] = {}


def multi_indices(k: int) -> np.ndarray:
    """Barycentric exponent tuples of the degree-k simplex lattice, vertex-major order."""
    if k not in _MI_CACHE:
        _MI_CACHE[k] = _multi_indices(k)
    return _MI_CACHE[k]


def _factors(k: int, lam: np.ndarray, glam=None):
    """Per-coordinate 1D factors of every basis function at lam (P, 4), and their derivatives.

    Returns lists c, dc of four (P, NB) arrays: c[m][p, b] = L[a](lam[p, m])
    with a = multi_indices(k)[b, m] and L[a](t) = prod_{j<a} (k*t - j)/(a - j),
    and dc[m] its derivative in lam[:, m], or along the search line
    lam + d*glam when glam (P, 4) is given.  A basis function is the
    product of its four factors.
    """
    lam = np.ascontiguousarray(lam.T)
    L = np.ones((k + 1, *lam.shape))
    dL = np.zeros((k + 1, *lam.shape))
    for a in range(1, k + 1):
        fac = (k * lam - (a - 1)) / a
        dL[a] = dL[a - 1] * fac + L[a - 1] * (k / a)
        L[a] = L[a - 1] * fac
    if glam is not None:
        dL *= glam.T
    mi = multi_indices(k)
    # rows gathered per basis function are contiguous in the (k + 1, 4, P) tables
    return [L[mi[:, m], m].T for m in range(4)], [dL[mi[:, m], m].T for m in range(4)]


def eval_basis(k: int, lam: np.ndarray):
    """Evaluate the P^k Lagrange basis at barycentric points ``lam`` (P, 4).

    Nodes sit at multi_indices(k)/k.  Values are products of 1D factors
    prod_{j<a} (k*t - j)/(a - j), which reproduce the Kronecker property
    exactly at the nodes and extrapolate polynomially outside the simplex.
    Returns (vals (P, NB), dlam (P, NB, 4)) with dlam the gradient with
    respect to the four barycentric coordinates.
    """
    comp, dcomp = _factors(k, np.asarray(lam, dtype=np.float64))
    vals = comp[0] * comp[1] * comp[2] * comp[3]
    dlam = np.empty((*vals.shape, 4))
    dlam[:, :, 0] = dcomp[0] * comp[1] * comp[2] * comp[3]
    dlam[:, :, 1] = comp[0] * dcomp[1] * comp[2] * comp[3]
    dlam[:, :, 2] = comp[0] * comp[1] * dcomp[2] * comp[3]
    dlam[:, :, 3] = comp[0] * comp[1] * comp[2] * dcomp[3]
    return vals, dlam


def _eval_phi_dphi(k, coeffs, lam, glam):
    """phi_h and its derivative along the search line at lam + d*glam.

    On the line each 1D factor changes at the rate of its derivative times
    glam_m, so the derivative takes the per-point factors and never the
    (P, NB, 4) barycentric gradient of the basis.
    """
    c, dc = _factors(k, lam, glam)
    vals = c[0] * c[1] * c[2] * c[3]
    dvals = (dc[0] * c[1] + c[0] * dc[1]) * (c[2] * c[3]) + (c[0] * c[1]) * (dc[2] * c[3] + c[2] * dc[3])
    return np.einsum("pb,pb->p", vals, coeffs), np.einsum("pb,pb->p", dvals, coeffs)


def solve_dh(
    k: int,
    coeffs: np.ndarray,
    lam_x: np.ndarray,
    glam: np.ndarray,
    phihat: np.ndarray,
    delta: np.ndarray,
):
    """Batched safeguarded-Newton root solve for the deformation distance.

    Solves phi_h(lam_x + d*glam) = phihat for the root of smallest |d| in
    [-delta, delta], one independent scalar problem per row.  ``coeffs``
    is the per-point element coefficient row (P, NB), ``lam_x`` the
    barycentric coordinates of the query point, ``glam`` the barycentric
    direction of the search line.  Newton starts at d = 0; rows that
    diverge, stall, or leave the bracket fall back to bisection on a
    sign-change interval located by an equispaced scan, preferring the
    interval closest to zero.  Returns (d (P,), ok (P,) bool).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    lam_x = np.asarray(lam_x, dtype=np.float64)
    glam = np.asarray(glam, dtype=np.float64)
    phihat = np.asarray(phihat, dtype=np.float64)
    P = lam_x.shape[0]
    delta = np.broadcast_to(np.asarray(delta, dtype=np.float64), (P,))
    tol = ROOT_RTOL * np.maximum(1.0, np.abs(phihat))

    d = np.zeros(P)
    converged = np.zeros(P, dtype=bool)
    failed = np.zeros(P, dtype=bool)
    active = np.arange(P)
    for _ in range(MAX_NEWTON):
        lam = lam_x[active] + d[active, None] * glam[active]
        g, gp = _eval_phi_dphi(k, coeffs[active], lam, glam[active])
        g = g - phihat[active]
        done = np.abs(g) <= tol[active]
        converged[active[done]] = True
        live = ~done
        if not live.any():
            active = active[:0]
            break
        idx = active[live]
        g, gp = g[live], gp[live]
        bad = np.abs(gp) < 1e-300
        step = np.where(bad, 0.0, g / np.where(bad, 1.0, gp))
        dn = d[idx] - step
        out = bad | (np.abs(dn) > delta[idx])
        failed[idx[out]] = True
        keep = ~out
        d[idx[keep]] = dn[keep]
        active = idx[keep]
    failed[active] = True  # no convergence within the iteration budget

    if failed.any():
        idx = np.flatnonzero(failed)
        d_f, ok_f = _bisect_fallback(k, coeffs[idx], lam_x[idx], glam[idx], phihat[idx], delta[idx], tol[idx])
        d[idx] = d_f
        converged[idx] = ok_f
    return d, converged


def _bisect_fallback(k, coeffs, lam_x, glam, phihat, delta, tol):
    P = lam_x.shape[0]
    ts = np.linspace(-1.0, 1.0, SCAN + 1)
    samples = np.empty((SCAN + 1, P))
    for i, t in enumerate(ts):
        lam = lam_x + (t * delta)[:, None] * glam
        g, _ = _eval_phi_dphi(k, coeffs, lam, glam)
        samples[i] = g - phihat
    sign = np.sign(samples)
    change = sign[:-1] * sign[1:] <= 0.0
    # Prefer the bracket whose nearest endpoint is closest to d = 0.
    near = np.minimum(np.abs(ts[:-1]), np.abs(ts[1:]))[:, None] + np.where(change, 0.0, np.inf)
    pick = np.argmin(near, axis=0)
    ok = np.isfinite(near[pick, np.arange(P)])

    lo = ts[pick] * delta
    hi = ts[pick + 1] * delta
    flo = samples[pick, np.arange(P)]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lam = lam_x + mid[:, None] * glam
        g, _ = _eval_phi_dphi(k, coeffs, lam, glam)
        g = g - phihat
        left = flo * g > 0.0
        lo = np.where(left, mid, lo)
        flo = np.where(left, g, flo)
        hi = np.where(left, hi, mid)
    d = 0.5 * (lo + hi)
    lam = lam_x + d[:, None] * glam
    g, _ = _eval_phi_dphi(k, coeffs, lam, glam)
    ok &= np.abs(g - phihat) <= np.maximum(tol, 64.0 * np.finfo(float).eps * np.abs(phihat) + 1e-15)
    return d, ok


def accumulate_sym(vec: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted symmetric outer-product accumulation of local matrices.

    vec has shape (E, Q, NB, M); returns (E, NB, NB) with entry
    M[e, i, j] = sum_q w[e, q] * vec[e, q, i, :].vec[e, q, j, :].
    """
    return np.einsum("eqim,eqjm,eq->eij", vec, vec, w, optimize=True)
