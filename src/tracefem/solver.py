"""Constrained singular solve by rank-one augmentation and Jacobi PCG.

The stiffness-plus-stabilization operator S is symmetric positive
semidefinite with the constants in its kernel; the load is constructed
orthogonal to them.  Adding gamma * c c' (applied matrix-free) makes the
operator definite without touching the solution, which automatically
satisfies the mean-value constraint c.u = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SolveReport:
    u: np.ndarray
    iterations: int
    converged: bool
    relres: float        # preconditioned residual reduction at exit
    relres_true: float   # |S u - f| / |f| against the un-augmented operator
    gamma: float


class SolverDivergenceError(RuntimeError):
    """PCG exhausted its iteration cap; carries the partial report."""

    def __init__(self, report: SolveReport):
        super().__init__(
            f"PCG stalled after {report.iterations} iterations "
            f"(preconditioned residual reduction {report.relres:.3e})"
        )
        self.report = report


def _dot(a: np.ndarray, b: np.ndarray, out=None) -> float:
    """Inner product by numpy's pairwise sum, of the products written to out if given.

    ``a @ b`` goes through BLAS, and OpenBLAS splits long dot products
    across threads, so its rounding (and with it the PCG iteration count)
    depends on the thread count.  The pairwise sum does not.
    """
    return float(np.multiply(a, b, out=out).sum())


def augment_gamma(S, c: np.ndarray) -> float:
    """Scale for the rank-one augmentation: trace(S) / |c|^2."""
    cc = _dot(c, c)
    if cc == 0.0:
        raise ValueError("constraint vector is zero")
    return float(S.diagonal().sum()) / cc


def default_maxiter(n: int) -> int:
    return int(50 * np.sqrt(n) + 1000)


def pcg(apply_A, b, diag, tol=1e-9, maxiter=None, true_check=None):
    """Jacobi-preconditioned conjugate gradients from a zero start.

    Convergence requires the preconditioned residual norm to fall below
    tol relative to its initial value; when ``true_check`` is given it
    must also report True for the current plain residual (used to pin
    the unpreconditioned residual of the physical operator).
    The loop updates x, r, z and p in place through one scratch vector,
    with the textbook loop's operations in its order, so its iterates
    are that loop's to the bit.
    Returns (x, iterations, converged, relres).
    """
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    if maxiter is None:
        maxiter = default_maxiter(n)
    invd = 1.0 / np.asarray(diag, dtype=np.float64)
    x = np.zeros(n)
    r = b.copy()
    z = invd * r
    tmp = np.empty(n)
    rz = _dot(r, z, tmp)
    rz0 = rz
    if rz0 == 0.0:
        return x, 0, True, 0.0
    p = z.copy()
    relres = 1.0
    for it in range(1, maxiter + 1):
        Ap = apply_A(p)
        alpha = rz / _dot(p, Ap, tmp)
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        np.multiply(invd, r, out=z)
        rz_new = _dot(r, z, tmp)
        relres = np.sqrt(max(rz_new, 0.0) / rz0)
        if relres <= tol and (true_check is None or true_check(r)):
            return x, it, True, relres
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    return x, maxiter, False, relres


def solve_constrained(S, c, f, tol=1e-9, maxiter=None, gamma=None, raise_on_fail=True) -> SolveReport:
    """Solve (S + gamma c c') u = f matrix-free; u satisfies c.u ~ 0.

    Exceeding the iteration cap raises SolverDivergenceError unless
    ``raise_on_fail`` is false, in which case the report carries
    ``converged=False`` (the conditioning sweep records such entries
    instead of aborting).
    """
    c = np.asarray(c, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if gamma is None:
        gamma = augment_gamma(S, c)
    diag = S.diagonal() + gamma * c * c
    if np.any(diag <= 0.0):
        raise ValueError("augmented diagonal must be positive")

    tmp = np.empty(len(c))

    def apply_A(v):
        Sv = S @ v
        Sv += np.multiply(gamma * _dot(c, v, tmp), c, out=tmp)
        return Sv

    nf = np.sqrt(_dot(f, f))
    slack = 1.05 * tol * nf

    def true_check(r):
        # r is the augmented residual; near the constraint hyperplane it
        # matches f - S u, so bound the plain 2-norm with a small slack.
        return np.sqrt(_dot(r, r)) <= slack if nf > 0.0 else True

    u, its, ok, relres = pcg(apply_A, f, diag, tol=tol, maxiter=maxiter, true_check=true_check)
    res = S @ u - f
    res_true = np.sqrt(_dot(res, res)) / nf if nf > 0.0 else 0.0
    report = SolveReport(
        u=u, iterations=its, converged=ok, relres=relres, relres_true=res_true, gamma=gamma
    )
    if not ok and raise_on_fail:
        raise SolverDivergenceError(report)
    return report
