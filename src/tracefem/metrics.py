"""Error measures on the discrete surface and conditioning estimates.

Errors are integrated with rules one exactness step above assembly
(degree >= 2k), against the normal extensions of the exact data:

    e_dist = max |phi| over lifted quadrature points,
    e_L2   = |u_ext - u_h| in L2 of the deformed surface,
    e_H1t  = tangential part of grad(u_ext - u_h), projected with the
             deformed discrete normal,
    e_H1n  = |n . grad u_h| with the exact unit normal.

Condition numbers are those of S restricted to the constraint hyperplane
c.u = 0: the extreme eigenvalues of S on c-perp.  Small systems take them
exactly, from one Householder reflection, one tridiagonal reduction and
two bisected ends; large ones from LOBPCG.  Only these estimates import
scipy.linalg (the dense one) and scipy.sparse.linalg (LOBPCG), when they
are called, so a convergence run loads neither.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import SurfaceData

# the dense estimate's n^3 cost meets LOBPCG's between 1,323 and 1,587 dofs (plane k=2, the four sweep variants)
DENSE_EIG_LIMIT = 1500
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

    def chunk_sums(cells, lift, w):
        """max |phi| and the three weighted sums of squares over one chunk."""
        y, w = lift.y.reshape(-1, 3), w.ravel()
        nh, invJ = lift.nh.reshape(-1, 3), lift.invJ.reshape(-1, 3, 3)
        uc = np.repeat(u[mesh.elem_dofs[cells]], lift.vals.shape[1], axis=0)  # (points, NB)
        dist = np.abs(problem.levelset.phi(y)).max(initial=0.0)

        uh = np.einsum("pb,pb->p", lift.vals.reshape(len(y), -1), uc)
        l2 = np.sum(w * (problem.exact_solution(y) - uh) ** 2)

        gh = (np.einsum("pbi,pb->pi", lift.gref.reshape(len(y), -1, 3), uc)[:, None] @ invJ)[:, 0]
        diff = problem.exact_solution_gradient(y) - gh
        tang = diff - np.einsum("pi,pi->p", diff, nh)[:, None] * nh
        h1t = np.sum(w * np.einsum("pi,pi->p", tang, tang))

        n_exact = problem.levelset.grad_phi(y)
        n_exact = n_exact / np.linalg.norm(n_exact, axis=-1, keepdims=True)
        return dist, (l2, h1t, np.sum(w * np.einsum("pi,pi->p", n_exact, gh) ** 2))

    e_dist, sq = 0.0, np.zeros(3)  # squares of e_L2, e_H1t, e_H1n
    for cells, lift, w in SurfaceData.build(mapping, degree).chunks():
        dist, parts = chunk_sums(cells, lift, w)
        del lift, w  # freed before the next chunk's lift
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


class SingularEstimateError(EigenEstimateError):
    """A converged LOBPCG lambda_min not above its own residual: S is singular on c-perp as far as it can tell."""

    def __init__(self, lmax, lmin, res):
        super().__init__(f"lambda_min {lmin:.3e} is not above its residual {res:.3e}")
        self.lmax, self.lmin = lmax, lmin


def _dense_ends(chat, S):
    """The extreme eigenvalues (lambda_max, lambda_min) of S on the hyperplane of the unit vector chat.

    The Householder reflector H = I - 2 v v' with v along chat + sign(chat_j) e_j,
    j = argmax |chat_j| (so |chat + sign(chat_j) e_j|^2 >= 2), maps chat onto
    the axis e_j; its other columns are an orthonormal basis of chat-perp.
    H S H = S - v w' - w v' with w = 2 (S v - (v' S v) v), so S without row
    and column j, densified once in Fortran order, takes that rank-two
    update in place (upper triangle only, the one LAPACK reads) and is
    reduced to tridiagonal form once; bisection then finds its two ends.
    """
    from scipy.linalg import blas, lapack

    j = int(np.argmax(np.abs(chat)))
    v = chat.copy()
    v[j] += 1.0 if chat[j] >= 0.0 else -1.0
    v /= np.linalg.norm(v)
    Sv = S @ v
    w = 2.0 * (Sv - (v @ Sv) * v)
    keep = np.delete(np.arange(len(v)), j)
    A = blas.dsyr2(-1.0, v[keep], w[keep], a=S[keep][:, keep].toarray(order="F"), overwrite_a=True)
    m = len(keep)
    # the blocked reduction needs the queried workspace; the wrapper's default lwork = m runs the unblocked one
    _, d, e, _, _ = lapack.dsytrd(A, lwork=int(lapack.dsytrd_lwork(m)[0]), overwrite_a=True)
    if m == 1:
        return float(d[0]), float(d[0])
    ends = [lapack.dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "E") for i in (m, 1)]
    if any(found != 1 or info for found, *_, info in ends):
        raise np.linalg.LinAlgError("bisection found no eigenvalue: S is not finite")
    return tuple(float(lam[0]) for _, lam, *_ in ends)


def estimate_condition(S, c, method: str = "auto"):
    """Spectral bounds of S restricted to the hyperplane c.u = 0.

    Returns (lambda_max, lambda_min).  'dense' reflects S with one
    Householder reflector that maps c onto a coordinate axis and drops
    that row and column: one reduction of the dense (n-1, n-1) rest to
    tridiagonal form, two bisected ends.  S need not be definite.
    'iterative' runs LOBPCG on S restricted to c-perp twice, from seeded
    start vectors: for lambda_max without a preconditioner, for
    lambda_min with Jacobi.  It raises EigenEstimateError if a run ends
    with its residual norm above LOBPCG_RTOL times the Gershgorin bound
    of S, and SingularEstimateError, carrying both values, if lambda_min
    is not above its own residual norm, since such a value cannot be told
    from zero.  'auto' picks dense up to DENSE_EIG_LIMIT dofs, and
    'iterative' takes the dense path too below six unknowns, where
    LOBPCG's own dense fallback refuses the constraint.  A zero or
    non-finite c, or a single unknown (c-perp is empty), raises ValueError.
    """
    c = np.asarray(c, dtype=np.float64)
    n = len(c)
    if method == "auto":
        method = "dense" if n <= DENSE_EIG_LIMIT else "iterative"
    if method not in ("dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if n < 2:
        raise ValueError("c-perp is empty: the constraint leaves no unknowns")
    norm = np.linalg.norm(c)
    if not 0.0 < norm < np.inf:
        raise ValueError("constraint vector is zero or not finite")
    chat = c / norm
    if method == "dense" or n < 6:
        return _dense_ends(chat, S)
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
        raise SingularEstimateError(lmax, lmin, res)
    return lmax, lmin
