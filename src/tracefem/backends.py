"""The numpy compute kernels, and the one home of the P^k Lagrange basis.

The three hot kernels: equispaced simplex Lagrange basis evaluation
(eval_basis, on the node lattice multi_indices(k) / k), the batched 1D
root solve used by the mesh deformation, and the symmetric local-matrix
accumulation used by the bilinear-form assembly.  Library code looks
them up on this module at call time (``backends.eval_basis``), never by
``from ... import``, so a wrapper set on the module sees every call.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

ROOT_RTOL = 1e-12   # solve_dh's residual tolerance, relative to max(1, |phihat|)
MAX_NEWTON = 50     # Newton steps before a row falls back to bisection
SCAN = 16           # equispaced intervals of the fallback's bracket search


# pipebench/spans.py is the only caller: its tracer wraps the kernels on this module.
def active():
    return sys.modules[__name__]


@functools.cache
def multi_indices(k: int) -> np.ndarray:
    """Barycentric exponent tuples (NB, 4) of the degree-k simplex lattice, vertex-major order; read-only, as every caller shares it."""
    mi = np.array([
        (a0, a1, a2, k - a0 - a1 - a2)
        for a0 in range(k, -1, -1) for a1 in range(k - a0, -1, -1) for a2 in range(k - a0 - a1, -1, -1)
    ], dtype=np.int64)
    mi.setflags(write=False)
    return mi


def _tables(k: int, lam: np.ndarray, glam=None, out=None):
    """The 1D factors of every degree at lam (P, 4), and their derivatives, as (k + 1, 4, P) tables.

    L[a, m, p] = L[a](lam[p, m]) with L[a](t) = prod_{j<a} (k*t - j)/(a - j),
    and dL[a, m, p] its derivative in lam[:, m], or along the search line
    lam + d*glam when glam (P, 4) is given.  out, if given, is two flat
    buffers of at least (k + 1) * 4 * P doubles whose prefixes take L and dL.
    """
    lam = np.ascontiguousarray(lam.T)
    shape = (k + 1, *lam.shape)
    L, dL = (np.empty(shape) for _ in range(2)) if out is None else (b[: math.prod(shape)].reshape(shape) for b in out)
    L[0] = 1.0
    dL[0] = 0.0
    for a in range(1, k + 1):
        fac = (k * lam - (a - 1)) / a
        np.multiply(dL[a - 1], fac, out=dL[a])
        dL[a] += L[a - 1] * (k / a)
        np.multiply(L[a - 1], fac, out=L[a])
    if glam is not None:
        dL *= glam.T
    return L, dL


def _gather(table, mi, m, out):
    """The factors table[mi[:, m], m] (NB, P) in coordinate m of every basis function, written into out."""
    return np.take(table[:, m], mi[:, m], axis=0, out=out, mode="clip")  # the rows are valid: unbuffered


def eval_basis(k: int, lam: np.ndarray):
    """Evaluate the P^k Lagrange basis at barycentric points ``lam`` (P, 4).

    Nodes sit at multi_indices(k)/k.  Values are products of 1D factors
    prod_{j<a} (k*t - j)/(a - j), which reproduce the Kronecker property
    exactly at the nodes and extrapolate polynomially outside the simplex.
    Returns (vals (P, NB), dlam (P, NB, 4)) with dlam the gradient with
    respect to the four barycentric coordinates; in an element the
    physical gradients are dlam @ bary_grad.

    A basis function is the product f0 f1 f2 f3 of its four factors
    f_m = L[a_m](lam_m), a = multi_indices(k)[b], and its derivative in
    lam_m the same product with f_m's derivative.  Each product is formed
    as ((f0 * f1) * f2) * f3 in one (NB, P) buffer, its factors gathered
    from the tables into another one at a time, and a derivative is then
    copied into dlam; the last product is vals.  So dlam and the two
    buffers are 6 NB doubles a point besides the tables, where the eight
    gathered factors and the products' temporaries made 15 NB.
    """
    L, dL = _tables(k, np.asarray(lam, dtype=np.float64))
    mi = multi_indices(k)
    P = L.shape[2]
    prod, factor = np.empty((len(mi), P)), np.empty((len(mi), P))

    def product(diff):
        """((f0 * f1) * f2) * f3 into prod, with f_diff differentiated (none if diff is None)."""
        for m in range(4):
            _gather(dL if m == diff else L, mi, m, prod if m == 0 else factor)
            if m:
                np.multiply(prod, factor, out=prod)
        return prod

    dlam = np.empty((P, len(mi), 4))
    for m in range(4):
        dlam[:, :, m] = product(m).T
    vals = product(None)  # (NB, P): the rows of one basis function are contiguous in the tables
    return vals.T, dlam


def _workspace(k, rows):
    """Flat buffers for _eval_phi_dphi on at most rows points: its two (k + 1, 4, rows) tables and six (NB, rows) arrays."""
    nb = len(multi_indices(k))
    return [np.empty((k + 1) * 4 * rows) for _ in range(2)] + [np.empty(nb * rows) for _ in range(6)]


def _eval_phi_dphi(k, coeffs, lam, glam, work):
    """phi_h and its derivative along the search line at lam + d*glam.

    On the line each 1D factor changes at the rate of its derivative times
    glam_m, so the derivative takes the per-point factors and never the
    (P, NB, 4) barycentric gradient of the basis: with c_m the factors
    and dc_m their derivatives (NB, P), as eval_basis gathers them,

        vals  = ((c0 c1) c2) c3,
        dvals = (dc0 c1 + c0 dc1)(c2 c3) + (c0 c1)(dc2 c3 + c2 dc3),

    each product and sum formed in that order.  Every array lies in a
    contiguous prefix of the buffers of _workspace, work, so the Newton
    steps of solve_dh, on ever fewer points, allocate none of them.
    """
    L, dL = _tables(k, lam, glam, work[:2])
    mi = multi_indices(k)
    nb, P = len(mi), len(lam)
    B = [w[: nb * P].reshape(nb, P) for w in work[2:]]
    c0, c1, t01, a = _gather(L, mi, 0, B[0]), _gather(L, mi, 1, B[1]), B[2], B[3]
    np.multiply(c0, c1, out=t01)
    np.multiply(_gather(dL, mi, 0, a), c1, out=a)
    a += np.multiply(c0, _gather(dL, mi, 1, B[4]), out=B[4])  # dc0 c1 + c0 dc1
    c2, c3, vals, t = _gather(L, mi, 2, B[0]), _gather(L, mi, 3, B[1]), B[4], B[5]
    np.multiply(t01, c2, out=vals)
    vals *= c3
    a *= np.multiply(c2, c3, out=t)
    e = np.multiply(_gather(dL, mi, 2, t), c3, out=t)
    e += np.multiply(c2, _gather(dL, mi, 3, B[1]), out=B[1])  # dc2 c3 + c2 dc3
    a += np.multiply(t01, e, out=e)
    return np.einsum("pb,pb->p", vals.T, coeffs), np.einsum("pb,pb->p", a.T, coeffs)


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

    The (rows, NB) arrays of every step, the active rows' coefficients and
    the factors of _eval_phi_dphi, are contiguous prefixes of buffers
    made once per call, and so are the bisection's.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    lam_x = np.asarray(lam_x, dtype=np.float64)
    glam = np.asarray(glam, dtype=np.float64)
    phihat = np.asarray(phihat, dtype=np.float64)
    P = lam_x.shape[0]
    delta = np.broadcast_to(np.asarray(delta, dtype=np.float64), (P,))
    tol = ROOT_RTOL * np.maximum(1.0, np.abs(phihat))

    work = _workspace(k, P)
    rows = np.empty(coeffs.size)  # the active rows of coeffs
    d = np.zeros(P)
    converged = np.zeros(P, dtype=bool)
    failed = np.zeros(P, dtype=bool)
    active = np.arange(P)
    for _ in range(MAX_NEWTON):
        lam = lam_x[active] + d[active, None] * glam[active]
        c = np.take(coeffs, active, axis=0, out=rows[: active.size * coeffs.shape[1]].reshape(-1, coeffs.shape[1]), mode="clip")
        g, gp = _eval_phi_dphi(k, c, lam, glam[active], work)
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
        d_f, ok_f = _bisect_fallback(k, coeffs[idx], lam_x[idx], glam[idx], phihat[idx], delta[idx], tol[idx], work)
        d[idx] = d_f
        converged[idx] = ok_f
    return d, converged


def _bisect_fallback(k, coeffs, lam_x, glam, phihat, delta, tol, work):
    P = lam_x.shape[0]
    ts = np.linspace(-1.0, 1.0, SCAN + 1)
    samples = np.empty((SCAN + 1, P))
    for i, t in enumerate(ts):
        lam = lam_x + (t * delta)[:, None] * glam
        g, _ = _eval_phi_dphi(k, coeffs, lam, glam, work)
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
        g, _ = _eval_phi_dphi(k, coeffs, lam, glam, work)
        g = g - phihat
        left = flo * g > 0.0
        lo = np.where(left, mid, lo)
        flo = np.where(left, g, flo)
        hi = np.where(left, hi, mid)
    d = 0.5 * (lo + hi)
    lam = lam_x + d[:, None] * glam
    g, _ = _eval_phi_dphi(k, coeffs, lam, glam, work)
    ok &= np.abs(g - phihat) <= np.maximum(tol, 64.0 * np.finfo(float).eps * np.abs(phihat) + 1e-15)
    return d, ok


SYM = "eqim,eqjm,eq->eij"  # accumulate_sym's product


@functools.lru_cache(maxsize=64)
def _sym_path(shape):
    """The contraction order np.einsum(SYM, ..., optimize=True) finds for vectors (E, *shape), searched once per shape.

    It does not depend on E: w * vec first, then one batched matmul,
    except at shape (1, 4, 3), P1 surface points, where vec . vec comes
    first.
    """
    v = np.empty((1, *shape))
    return np.einsum_path(SYM, v, v, np.empty((1, shape[0])), optimize=True)[0]


def accumulate_sym(vec: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted symmetric outer-product accumulation of local matrices.

    vec has shape (E, Q, NB, M); returns (E, NB, NB) with entry
    M[e, i, j] = sum_q w[e, q] * vec[e, q, i, :].vec[e, q, j, :].

    The einsum forms w * vec and copies it and vec to the layouts of one
    batched matmul, three arrays of vec's size.  It is run on three runs
    of elements, so those copies come to about vec's size, and a lifted
    chunk peaks in its lift or its integrand, not here.  Each element's
    matrix is its own matmul, so the result is that of one einsum over all
    elements to the bit.
    """
    E = len(vec)
    out = np.empty((E, vec.shape[2], vec.shape[2]))
    path = _sym_path(vec.shape[1:])
    bounds = np.linspace(0, E, min(3, E) + 1).astype(np.int64)
    for a, b in zip(bounds[:-1], bounds[1:]):
        np.einsum(SYM, vec[a:b], vec[a:b], w[a:b], out=out[a:b], optimize=path)
    return out
