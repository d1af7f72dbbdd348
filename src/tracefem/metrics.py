"""Error measures on the discrete surface and conditioning estimates.

Errors are integrated with rules one exactness step above assembly
(degree >= 2k), against the normal extensions of the exact data:

    e_dist = max |phi| over lifted quadrature points,
    e_L2   = |u_ext - u_h| in L2 of the deformed surface,
    e_H1t  = tangential part of grad(u_ext - u_h), projected with the
             deformed discrete normal,
    e_H1n  = |n . grad u_h| with the exact unit normal.

Condition numbers are those of S restricted to the constraint hyperplane
c.u = 0: the extreme eigenvalues of S on c-perp, to rounding at every
size: lambda_max from Lanczos on the projected S, lambda_min from one
sparse factorization of S bordered by c and shift-invert Lanczos.  Only
the estimate imports scipy.sparse.linalg (and with it scipy.linalg), when
it is called, so a convergence run loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import SurfaceData

@dataclass
class ErrorReport:
    e_dist: float
    e_l2: float
    e_h1t: float
    e_h1n: float
    ndofs: int
    h: float


def compute_errors(mapping, u, problem, degree=None) -> ErrorReport:
    """Geometry and solution errors for a coefficient vector u on mapping's mesh.

    The four integrals are reduced chunk by chunk of the lifted surface
    rule, a running max and three running sums, so nothing that grows with
    the number of points is kept, and nothing of a chunk is alive when the
    next one is lifted.
    """
    mesh = mapping.mesh
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.ndofs,):
        raise ValueError("coefficient vector does not match the dof count")
    if degree is None:
        degree = 2 * mesh.k

    def chunk_sums(y, nh, w, uh, gh):
        """max |phi| and the three weighted sums of squares over one chunk's points."""
        dist = np.abs(problem.levelset.phi(y)).max(initial=0.0)
        l2 = np.sum(w * (problem.exact_solution(y) - uh) ** 2)
        diff = problem.exact_solution_gradient(y) - gh
        tang = diff - np.einsum("pi,pi->p", diff, nh)[:, None] * nh
        h1t = np.sum(w * np.einsum("pi,pi->p", tang, tang))
        n_exact = problem.levelset.grad_phi(y)
        n_exact = n_exact / np.linalg.norm(n_exact, axis=-1, keepdims=True)
        return dist, (l2, h1t, np.sum(w * np.einsum("pi,pi->p", n_exact, gh) ** 2))

    rule = SurfaceData.build(mapping, degree)
    e_dist, sq = 0.0, np.zeros(3)  # squares of e_L2, e_H1t, e_H1n
    for cells, lift, w in rule.chunks():
        # u_h and its gradient first: the lift's (points, NB) arrays are freed before the exact data is evaluated
        uc = np.repeat(u[mesh.elem_dofs[cells]], rule.q, axis=0)  # (points, NB)
        uh = np.einsum("pb,pb->p", lift.vals.reshape(len(uc), -1), uc)
        gh = (np.einsum("pbi,pb->pi", lift.gref.reshape(len(uc), -1, 3), uc)[:, None] @ lift.invJ.reshape(-1, 3, 3))[:, 0]
        y, nh = lift.y.reshape(-1, 3), lift.nh.reshape(-1, 3)
        del lift, uc
        dist, parts = chunk_sums(y, nh, w.ravel(), uh, gh)
        del y, nh, w, uh, gh  # freed before the next chunk's lift
        e_dist = np.maximum(e_dist, dist)  # keeps a nan
        sq += parts

    e_l2, e_h1t, e_h1n = (float(v) for v in np.sqrt(sq))
    return ErrorReport(float(e_dist), e_l2, e_h1t, e_h1n, mesh.ndofs, mesh.h)


def normal_deviation(mapping, levelset, degree=None) -> float:
    """Max deviation of the discrete unit normal from the exact surface normal, reduced chunk by chunk.

    Nothing of a chunk is alive when the next one is lifted.
    """

    def chunk_max(lift):
        n_exact = levelset.grad_phi(lift.y.reshape(-1, 3))
        n_exact = n_exact / np.linalg.norm(n_exact, axis=-1, keepdims=True)
        return np.linalg.norm(lift.nh.reshape(-1, 3) - n_exact, axis=-1).max(initial=0.0)

    dev = 0.0
    for _, lift, w in SurfaceData.build(mapping, degree if degree is not None else 2 * mapping.mesh.k).chunks():
        dev = np.maximum(dev, chunk_max(lift))
        del lift, w  # freed before the next chunk's lift
    return float(dev)


def eoc(errors) -> list:
    """Estimated orders log2(e_{l-1}/e_l) between successive halvings."""
    errors = np.asarray(errors, dtype=np.float64)
    out = []
    for a, b in zip(errors[:-1], errors[1:]):
        if a > 0.0 and b > 0.0:
            out.append(float(np.log2(a / b)))
        else:
            out.append(float("nan"))
    return out


class EigenEstimateError(RuntimeError):
    pass


def _lanczos(apply, v, magnitude=False, stop=None, stride=1):
    """The largest eigenvalue of a symmetric operator, or with magnitude the one of largest magnitude.

    Three-term Lanczos from the unit vector v, without reorthogonalization:
    in floating point the extreme Ritz values still converge to eigenvalues,
    only copies of them appear (Paige, 1980).  The end Ritz values of the
    tridiagonal T_m never move inward as m grows (T_m is a leading block of
    T_m+1), so every stride steps the end one, theta, is bisected and
    returned once it moved by at most eps |T_m| since the last check, once
    stop(theta) holds, or once the Krylov space is exhausted.  Raises
    LinAlgError if the operator gives a value that is not finite, and
    EigenEstimateError if 2 n + 50 steps do not converge.
    """
    from scipy.linalg import lapack

    n, eps = len(v), np.finfo(float).eps
    alpha, beta = [], []
    v_prev, b, last = np.zeros(n), 0.0, np.nan
    for m in range(1, 2 * n + 51):
        w = apply(v)
        a = float(w @ v)
        w -= a * v
        w -= b * v_prev
        b = float(np.sqrt(w @ w))
        if not np.isfinite(a + b):
            raise np.linalg.LinAlgError("Lanczos met a value that is not finite: S is not finite")
        alpha.append(a)
        if m % stride == 0 or b == 0.0:
            d, e = np.array(alpha), np.array(beta)
            low, high = (a, a) if m == 1 else (lapack.dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "E")[1][0] for i in (1, m))
            theta = low if magnitude and abs(low) > abs(high) else high
            if abs(theta - last) <= eps * max(abs(low), abs(high)) or b == 0.0 or (stop is not None and stop(theta)):
                return theta
            last = theta
        beta.append(b)
        v_prev, v = v, w / b
    raise EigenEstimateError(f"Lanczos did not converge in {m} steps")


def estimate_condition(S, c):
    """Spectral bounds (lambda_max, lambda_min) of S restricted to the hyperplane c.u = 0.

    With chat = c / |c| and P = I - chat chat', lambda_max comes from
    Lanczos on P S P from a seeded start in c-perp.  lambda_min comes from
    one sparse LU of the bordered matrix K = [[S + tau I, chat], [chat', 0]],
    tau = n eps |lambda_max| (the sweep's singular threshold), ordered
    symmetrically (minimum degree on K' + K) and factored without pivoting
    where the diagonal allows: for r in c-perp the first n entries of
    K^-1 [r; 0] are (P (S + tau I) P)^-1 r, so Lanczos on that map, each
    solve refined once, gives its Ritz value theta of largest magnitude
    and lambda_min = 1 / theta - tau (Ericsson and Ruhe, 1980).  It stops
    as soon as that proves lambda_min <= tau.  If the factorization kept
    the diagonal pivots, U's diagonal is the D of K = L D L' and one
    negative entry proves S + tau I definite on c-perp (Sylvester); else
    S may be indefinite there, the Ritz value of K^-1 is only the
    eigenvalue nearest -tau, and lambda_min is the lesser of it and of
    Lanczos on -(P S P + lambda_max chat chat'), whose largest eigenvalue
    is -lambda_min (the chat term moves P S P's zero along chat out of
    the way).

    A zero or non-finite c, or a single unknown (c-perp is empty), raises
    ValueError; a non-finite S LinAlgError; an exactly singular K
    EigenEstimateError.
    """
    from scipy.sparse.linalg import splu

    c = np.asarray(c, dtype=np.float64)
    n = len(c)
    if n < 2:
        raise ValueError("c-perp is empty: the constraint leaves no unknowns")
    norm = np.linalg.norm(c)
    if not 0.0 < norm < np.inf:
        raise ValueError("constraint vector is zero or not finite")
    chat = c / norm
    if n == 2:  # c-perp is the line of (chat_1, -chat_0)
        u = np.array([chat[1], -chat[0]])
        lam = float(u @ (S @ u))
        return lam, lam

    def project(x):
        return x - (chat @ x) * chat

    def apply_psp(x):
        return project(S @ project(x))

    start = project(np.random.default_rng(1234).standard_normal(n))
    start /= np.linalg.norm(start)
    lmax = _lanczos(apply_psp, start, stride=8)
    tau = n * np.finfo(float).eps * abs(lmax)
    K = sp.bmat([[S + tau * sp.identity(n), chat[:, None]], [chat[None, :], None]], format="csc")
    try:
        lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise EigenEstimateError(f"the bordered factorization failed: {exc}") from exc
    definite = (lu.perm_r == lu.perm_c).all() and np.count_nonzero(lu.U.diagonal() < 0.0) == 1

    def apply_inverse(r):
        b = np.append(r, 0.0)
        y = lu.solve(b)
        y += lu.solve(b - K @ y)
        return project(y[:n])

    # a negative theta is no bound on lambda_min; only a positive one proves lambda_min <= tau
    theta = _lanczos(apply_inverse, start, magnitude=True, stop=lambda t: t > 0.0 and 1.0 / t - tau <= tau)
    lmin = 1.0 / theta - tau
    if definite:
        return lmax, lmin
    nu = -_lanczos(lambda x: -apply_psp(x) - lmax * (chat @ x) * chat, start, stride=8)
    return lmax, min(lmin, nu)
