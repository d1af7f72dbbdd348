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
to rounding, after one Householder reflection: lambda_max from Lanczos,
lambda_min from one factorization and shift-invert Lanczos; large ones
from LOBPCG.  Only these estimates import
scipy.linalg (the dense one) and scipy.sparse.linalg (LOBPCG), when they
are called, so a convergence run loads neither.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import SurfaceData

# the dense estimate's n^3 cost meets LOBPCG's between 2,523 and 3,267 dofs (plane k=2, the four sweep variants at shifts 0.5 and 1e-3)
DENSE_EIG_LIMIT = 3000
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


def _dense_ends(chat, S):
    """The extreme eigenvalues (lambda_max, lambda_min) of S on the hyperplane of the unit vector chat.

    The Householder reflector H = I - 2 v v' with v along chat + sign(chat_j) e_j,
    j = argmax |chat_j| (so |chat + sign(chat_j) e_j|^2 >= 2), maps chat onto
    the axis e_j; its other columns are an orthonormal basis of chat-perp.
    H S H = S - v w' - w v' with w = 2 (S v - (v' S v) v), so A, S without
    row and column j less that rank-two term, is S on chat-perp.
    lambda_max comes from Lanczos on A applied through the sparse rest of S.
    lambda_min comes from one factorization of B = A + tau I, tau =
    n eps |lambda_max| (the sweep's singular threshold): A, densified once
    in Fortran order, takes the rank-two update and the shift in place
    (upper triangle only, the one LAPACK reads) and is factored in place
    by Bunch-Kaufman; Lanczos on B^-1, one solve per step, gives its Ritz
    value theta of largest magnitude and lambda_min = 1 / theta - tau
    (Ericsson and Ruhe, 1980).  It stops as soon as that proves lambda_min
    <= tau.  If B has a non-positive or a 2 x 2 pivot, S is indefinite on
    chat-perp and lambda_min comes from Lanczos on -A instead.
    """
    from scipy.linalg import blas, lapack

    n = len(chat)
    j = int(np.argmax(np.abs(chat)))
    v = chat.copy()
    v[j] += 1.0 if chat[j] >= 0.0 else -1.0
    v /= np.linalg.norm(v)
    Sv = S @ v
    w = 2.0 * (Sv - (v @ Sv) * v)
    keep = np.delete(np.arange(n), j)
    rest, v, w = S[keep][:, keep], v[keep], w[keep]

    def apply_a(x):
        return rest @ x - (w @ x) * v - (v @ x) * w

    start = np.random.default_rng(1234).standard_normal(n - 1)
    start /= np.linalg.norm(start)
    lmax = _lanczos(apply_a, start, stride=8)
    if n == 2:  # chat-perp is a line
        return lmax, lmax
    tau = n * np.finfo(float).eps * abs(lmax)
    A = blas.dsyr2(-1.0, v, w, a=rest.toarray(order="F"), overwrite_a=True)
    np.fill_diagonal(A, A.diagonal() + tau)
    # the wrapper's default lwork = n - 1 runs the unblocked code, 3.6x slower; blocks of 32 columns
    # factor as fast as the queried 64 (11 against 12 ms at 866 unknowns) in half the workspace
    lu, ipiv, info = lapack.dsytrf(A, lwork=32 * (n - 1), overwrite_a=True)
    if info == 0 and (ipiv > 0).all() and (lu.diagonal() > 0.0).all():
        theta = _lanczos(
            lambda x: lapack.dsytrs(lu, ipiv, x)[0], start, magnitude=True, stop=lambda t: 1.0 / t - tau <= tau
        )
        return lmax, 1.0 / theta - tau
    return lmax, -_lanczos(lambda x: -apply_a(x), start, stride=8)


def estimate_condition(S, c, method: str = "auto"):
    """Spectral bounds of S restricted to the hyperplane c.u = 0.

    Returns (lambda_max, lambda_min).  'dense' reflects S with one
    Householder reflector that maps c onto a coordinate axis and drops
    that row and column, then runs Lanczos on the sparse rest for
    lambda_max, and for lambda_min factors the dense (n-1, n-1) rest
    shifted by tau = n eps |lambda_max| once and runs Lanczos on its
    inverse; on a singular row it stops once lambda_min <= tau is proven.
    S need not be definite.
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
