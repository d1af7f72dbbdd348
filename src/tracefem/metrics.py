"""Error measures on the discrete surface and conditioning estimates.

Errors are integrated with rules one exactness step above assembly
(degree >= 2k), against the normal extensions of the exact data:

    e_dist = max |phi| over lifted quadrature points,
    e_L2   = |u_ext - u_h| in L2 of the deformed surface,
    e_H1t  = tangential part of grad(u_ext - u_h), projected with the
             deformed discrete normal,
    e_H1n  = |n . grad u_h| with the exact unit normal.

Condition numbers are measured on the constraint hyperplane c.u = 0,
with the constant mode deflated by orthogonal projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import SurfaceData
from .solver import pcg

DENSE_EIG_LIMIT = 4000
ITERATIVE_DOF_CAP = 20000


@dataclass
class ErrorReport:
    e_dist: float
    e_l2: float
    e_h1t: float
    e_h1n: float
    ndofs: int
    h: float


def compute_errors(mesh, dls, mapping, u, problem, degree=None) -> ErrorReport:
    """Geometry and solution errors for a coefficient vector u."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.ndofs,):
        raise ValueError("coefficient vector does not match the dof count")
    if degree is None:
        degree = 2 * mesh.k
    surf = SurfaceData.build(mesh, dls, mapping, degree)

    phi_at = problem.levelset.phi(surf.y)
    e_dist = float(np.abs(phi_at).max())

    ue = problem.exact_solution(surf.y)
    uh = np.einsum("pb,pb->p", surf.vals, u[mesh.elem_dofs[surf.elems]])
    e_l2 = float(np.sqrt(np.sum(surf.w * (ue - uh) ** 2)))

    ge = problem.exact_solution_gradient(surf.y)
    gh = (np.einsum("pbi,pb->pi", surf.gref, u[mesh.elem_dofs[surf.elems]])[:, None] @ surf.invJ)[:, 0]
    diff = ge - gh
    tang = diff - np.einsum("pi,pi->p", diff, surf.nh)[:, None] * surf.nh
    e_h1t = float(np.sqrt(np.sum(surf.w * np.einsum("pi,pi->p", tang, tang))))

    n_exact = problem.levelset.grad_phi(surf.y)
    n_exact = n_exact / np.linalg.norm(n_exact, axis=-1, keepdims=True)
    gn = np.einsum("pi,pi->p", n_exact, gh)
    e_h1n = float(np.sqrt(np.sum(surf.w * gn**2)))

    return ErrorReport(e_dist, e_l2, e_h1t, e_h1n, mesh.ndofs, mesh.h)


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


def _projected_dense(chat, S):
    """S on the hyperplane of the unit vector chat, as a dense (n-1, n-1) array.

    The Householder reflector H = I - 2 v v' with v along chat + sign(chat_j) e_j,
    j = argmax |chat_j| (so |chat + sign(chat_j) e_j|^2 >= 2), maps chat onto
    the axis e_j; its other columns are an orthonormal basis of chat-perp.
    H S H = S - v w' - w v' with w = 2 (S v - (v' S v) v) is one rank-two
    update of S, and dropping row and column j leaves the projection.
    """
    j = int(np.argmax(np.abs(chat)))
    v = chat.copy()
    v[j] += 1.0 if chat[j] >= 0.0 else -1.0
    v /= np.linalg.norm(v)
    Sv = S @ v
    w = 2.0 * (Sv - (v @ Sv) * v)
    A = S.toarray()
    A -= np.outer(v, w)
    A -= np.outer(w, v)
    keep = np.delete(np.arange(len(v)), j)
    return A[np.ix_(keep, keep)]


def estimate_condition(S, c, method: str = "auto", tol: float = 5e-3, maxouter: int = 200):
    """Spectral bounds of S on the hyperplane c.u = 0.

    Returns (lambda_max, lambda_min).  'dense' reflects S with one
    Householder reflector that maps c onto a coordinate axis, drops that
    row and column and takes the eigenvalues of the dense (n-1, n-1)
    rest; 'iterative' uses power iteration for the top and inverse
    iteration (inner Jacobi PCG) for the bottom of the spectrum, both
    deflated by projection.  'auto' picks dense up to DENSE_EIG_LIMIT
    dofs.  A zero or non-finite c raises ValueError.
    """
    c = np.asarray(c, dtype=np.float64)
    n = len(c)
    if method == "auto":
        method = "dense" if n <= DENSE_EIG_LIMIT else "iterative"
    if method not in ("dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    norm = np.linalg.norm(c)
    if not 0.0 < norm < np.inf:
        raise ValueError("constraint vector is zero or not finite")
    chat = c / norm
    if method == "dense":
        # the transpose is Fortran-ordered, so LAPACK takes it without a copy
        w = scipy.linalg.eigvalsh(_projected_dense(chat, S).T, overwrite_a=True, check_finite=False)
        return float(w[-1]), float(w[0])
    if n > ITERATIVE_DOF_CAP:
        raise EigenEstimateError(f"conditioning estimate capped at {ITERATIVE_DOF_CAP} dofs")

    def project(v):
        return v - (chat @ v) * chat

    def apply_A(v):
        return project(S @ project(v))

    rng = np.random.default_rng(1234)
    v = project(rng.standard_normal(n))
    v /= np.linalg.norm(v)
    lmax = 0.0
    for _ in range(maxouter):
        w = apply_A(v)
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise EigenEstimateError("power iteration collapsed")
        v = w / nw
        if abs(lam - lmax) <= tol * abs(lam):
            lmax = lam
            break
        lmax = lam
    else:
        raise EigenEstimateError("power iteration did not settle")

    diag = np.maximum(S.diagonal(), 1e-300)

    def precond_solve(b):
        x, _, ok, _ = pcg(
            apply_A, project(b), diag, tol=1e-6, maxiter=max(2000, int(20 * np.sqrt(n)) + 500)
        )
        if not ok:
            raise EigenEstimateError("inner solve for the smallest eigenvalue stalled")
        return project(x)

    v = project(rng.standard_normal(n))
    v /= np.linalg.norm(v)
    lmin = np.inf
    for _ in range(maxouter):
        w = precond_solve(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise EigenEstimateError("inverse iteration collapsed")
        v = w / nw
        lam = float(v @ apply_A(v))
        if np.isfinite(lmin) and abs(lam - lmin) <= tol * abs(lam):
            lmin = lam
            break
        lmin = lam
    else:
        raise EigenEstimateError("inverse iteration did not settle")
    return float(lmax), float(lmin)
