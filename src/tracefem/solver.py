"""Constrained singular solve by Jacobi PCG on S itself.

The stiffness-plus-stabilization operator S is symmetric positive
semidefinite with the constants in its kernel, and the load is
constructed orthogonal to them, so S u = f is consistent and CG solves
it as it is: with 1'r = 0, D^-1 r (D = diag S) is D-orthogonal to the
kernel, and the iterates stay in S's range up to round-off.  A constant
shift after PCG then puts u on the mean-value constraint c.u = 0
without touching S u.
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
    relres_true: float   # |S u - f| / |f|


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


def solve_constrained(S, c, f, tol=1e-9, maxiter=None, raise_on_fail=True) -> SolveReport:
    """Solve S u = f by Jacobi PCG; u is then shifted onto c.u = 0.

    f must be orthogonal to the constants, S's kernel; assemble_system
    projects the load so.  The shift divides by 1'c, so a c whose entries
    sum to zero (or to a non-finite value) raises ValueError.
    Exceeding the iteration cap raises SolverDivergenceError unless
    ``raise_on_fail`` is false, in which case the report carries
    ``converged=False`` (the conditioning sweep records such entries
    instead of aborting).
    """
    c = np.asarray(c, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    csum = float(c.sum())
    if csum == 0.0 or not np.isfinite(csum):
        raise ValueError(f"constraint vector must have a finite nonzero sum, got {csum}")
    diag = S.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("S's diagonal must be positive")

    nf = np.sqrt(_dot(f, f))
    slack = 1.05 * tol * nf

    def true_check(r):
        return np.sqrt(_dot(r, r)) <= slack if nf > 0.0 else True

    u, its, ok, relres = pcg(S.dot, f, diag, tol=tol, maxiter=maxiter, true_check=true_check)
    u -= _dot(c, u) / csum  # S 1 = 0: the constant shift leaves S u as it is
    res = S @ u - f
    res_true = np.sqrt(_dot(res, res)) / nf if nf > 0.0 else 0.0
    report = SolveReport(u=u, iterations=its, converged=ok, relres=relres, relres_true=res_true)
    if not ok and raise_on_fail:
        raise SolverDivergenceError(report)
    return report
