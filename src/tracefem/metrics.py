"""Error measures on the discrete surface and conditioning estimates.

Errors are integrated with rules one exactness step above assembly
(degree >= 2k), against the normal extensions of the exact data:

    e_dist = max |phi| over lifted quadrature points,
    e_L2   = |u_ext - u_h| in L2 of the deformed surface,
    e_H1t  = tangential part of grad(u_ext - u_h), projected with the
             deformed discrete normal,
    e_H1n  = |n . grad u_h| with the exact unit normal.

Condition numbers are those of S restricted to the constraint hyperplane
c.u = 0: the extreme eigenvalues of S on c-perp.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import SurfaceData

DENSE_EIG_LIMIT = 4000
# residual tolerance of LOBPCG, relative to the Gershgorin bound of S, and
# its iteration cap (plane k=2 n=48, 28k dofs, takes up to ~2900)
LOBPCG_RTOL = 1e-7
LOBPCG_MAXITER = 5000


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


def estimate_condition(S, c, method: str = "auto"):
    """Spectral bounds of S restricted to the hyperplane c.u = 0.

    Returns (lambda_max, lambda_min).  'dense' reflects S with one
    Householder reflector that maps c onto a coordinate axis, drops that
    row and column and takes the eigenvalues of the dense (n-1, n-1)
    rest.  'iterative' runs LOBPCG on S restricted to c-perp twice, from
    seeded start vectors: for lambda_max without a preconditioner, for
    lambda_min with Jacobi.  It raises EigenEstimateError if a run ends
    with its residual norm above LOBPCG_RTOL times the Gershgorin bound
    of S, or if lambda_min is not above its own residual norm, since such
    a value cannot be told from zero.  'auto' picks dense up to
    DENSE_EIG_LIMIT dofs.  A zero or non-finite c raises ValueError.
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
    from scipy.sparse import diags
    from scipy.sparse.linalg import lobpcg

    def projected(X):
        # LOBPCG keeps X in c-perp; dropping the c part of S X makes its
        # residual that of S on c-perp, which can go to zero
        SX = S @ X
        return SX - np.outer(chat, chat @ SX)

    tol = LOBPCG_RTOL * float(abs(S).sum(axis=1).max())
    rng = np.random.default_rng(1234)

    def extreme(largest, precond):
        with warnings.catch_warnings():
            # non-convergence is reported below, as EigenEstimateError
            warnings.simplefilter("ignore", UserWarning)
            lam, _, res = lobpcg(
                projected, rng.standard_normal((n, 1)), M=precond, Y=chat[:, None], tol=tol,
                maxiter=LOBPCG_MAXITER, largest=largest, retResidualNormsHistory=True,
            )
        if not res[-1] <= tol:
            raise EigenEstimateError(f"LOBPCG stopped at residual {res[-1]:.3e} above {tol:.3e}")
        return float(lam[0]), float(res[-1])

    lmax, _ = extreme(True, None)
    lmin, res = extreme(False, diags(1.0 / np.maximum(S.diagonal(), 1e-300)))
    if not lmin > res:
        raise EigenEstimateError(f"lambda_min {lmin:.3e} is not above its residual {res:.3e}")
    return lmax, lmin
