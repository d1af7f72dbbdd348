"""Constrained PCG solve against dense direct factorizations."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import tracefem
from tracefem.assembly import StabConfig, assemble_system
from tracefem.solver import (
    SolveReport,
    SolverDivergenceError,
    default_maxiter,
    pcg,
    solve_constrained,
)

from helpers import pcg_textbook, solve_constrained_textbook, torus_benchmark, torus_case


def torus_system(n=8, k=1, stab="normal_volume"):
    _, mesh, dls, mapping = torus_case(n, k)
    return assemble_system(mesh, dls, mapping, torus_benchmark(), StabConfig(stab))


class TestPlainSolve:
    """PCG on S itself, on the torus, k=2 n=16, normal_volume."""

    @pytest.fixture(scope="class")
    def system(self):
        return torus_system(16, 2)

    def test_solution_and_residual_hold_at_the_tolerance(self, system):
        S, c, f = system.S, system.c, system.f
        tol = 1e-9
        rep = solve_constrained(S, c, f, tol=tol)
        tight = solve_constrained(S, c, f, tol=1e-13)
        assert rep.relres_true <= tol
        assert np.linalg.norm(rep.u - tight.u) <= 5e-9 * np.linalg.norm(tight.u)

    def test_solution_lies_on_the_constraint_to_round_off(self, system):
        """The constant shift leaves |c.u| at 1.9e-18 of |c| |u| here."""
        S, c, f = system.S, system.c, system.f
        rep = solve_constrained(S, c, f)
        assert abs(c @ rep.u) <= 1e-14 * np.linalg.norm(c) * np.linalg.norm(rep.u)


class TestPcg:
    def test_identity_converges_immediately(self):
        b = np.array([1.0, -2.0, 3.0])
        x, its, ok, relres = pcg(lambda v: v, b, np.ones(3))
        assert ok and its == 1 and relres <= 1e-9
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_diagonal_systems_converge_in_one_iteration(self, rng):
        d = rng.uniform(0.5, 4.0, size=20)
        b = rng.standard_normal(20)
        x, its, ok, _ = pcg(lambda v: d * v, b, d)
        assert ok and its == 1
        np.testing.assert_allclose(x, b / d, atol=1e-12)

    def test_zero_rhs_returns_zero_without_iterating(self):
        x, its, ok, relres = pcg(lambda v: v, np.zeros(5), np.ones(5))
        assert ok and its == 0 and relres == 0.0
        assert np.all(x == 0)

    def test_matches_dense_solve_on_random_spd_system(self, rng):
        M = rng.standard_normal((50, 50))
        A = M @ M.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        x, its, ok, _ = pcg(lambda v: A @ v, b, np.diag(A), tol=1e-12)
        assert ok
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-7)

    def test_iteration_cap_reported(self, rng):
        M = rng.standard_normal((40, 40))
        A = M @ M.T + 40 * np.eye(40)
        b = rng.standard_normal(40)
        x, its, ok, relres = pcg(lambda v: A @ v, b, np.diag(A), tol=1e-14, maxiter=2)
        assert not ok and its == 2 and relres > 1e-14

    def test_default_iteration_budget(self):
        assert default_maxiter(10000) == 50 * 100 + 1000


class TestConstrainedSolve:
    def test_solution_satisfies_operator_and_constraint(self):
        sys = torus_system()
        rep = solve_constrained(sys.S, sys.c, sys.f, tol=1e-10)
        assert rep.converged
        nf = np.linalg.norm(sys.f)
        assert np.linalg.norm(sys.S @ rep.u - sys.f) <= 1.1 * 1e-10 * nf
        cu = abs(sys.c @ rep.u) / (np.linalg.norm(sys.c) * np.linalg.norm(rep.u))
        assert cu <= 1e-9

    def test_matches_dense_constrained_solve(self):
        """Saddle-point system [[S, c], [c', 0]] [u; mu] = [f; 0], solved dense."""
        sys = torus_system()
        n = len(sys.c)
        dense = np.zeros((n + 1, n + 1))
        dense[:n, :n] = sys.S.toarray()
        dense[:n, n] = dense[n, :n] = sys.c
        expected = np.linalg.solve(dense, np.append(sys.f, 0.0))[:n]
        rep = solve_constrained(sys.S, sys.c, sys.f, tol=1e-12)
        scale = np.linalg.norm(expected)
        assert np.linalg.norm(rep.u - expected) <= 1e-7 * scale

    def test_zero_load_returns_zero(self):
        sys = torus_system()
        rep = solve_constrained(sys.S, sys.c, np.zeros(len(sys.c)))
        assert rep.converged and rep.iterations == 0
        assert np.all(rep.u == 0) and rep.relres_true == 0.0

    def test_divergence_raises_with_report(self):
        sys = torus_system()
        with pytest.raises(SolverDivergenceError, match="stalled") as exc:
            solve_constrained(sys.S, sys.c, sys.f, tol=1e-14, maxiter=3)
        report = exc.value.report
        assert isinstance(report, SolveReport)
        assert report.iterations == 3 and not report.converged

    def test_divergence_can_be_recorded_instead(self):
        sys = torus_system()
        rep = solve_constrained(sys.S, sys.c, sys.f, tol=1e-14, maxiter=3, raise_on_fail=False)
        assert not rep.converged and rep.iterations == 3

    def test_nonpositive_diagonal_rejected(self):
        S = sp.diags([1.0, -2.0, 1.0]).tocsr()
        with pytest.raises(ValueError, match="diagonal"):
            solve_constrained(S, np.zeros(3) + 1e-30, np.ones(3))

    @pytest.mark.parametrize("c", [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]], ids=["zero-sum", "zero"])
    def test_constraint_with_zero_sum_rejected(self, c):
        """The shift onto c.u = 0 divides by 1'c."""
        S = sp.diags([1.0, 2.0, 1.0]).tocsr()
        with pytest.raises(ValueError, match="nonzero sum"):
            solve_constrained(S, np.array(c), np.ones(3))


class TestInPlacePcg:
    """pcg updates its vectors in place; its iterates are the textbook loop's to the bit."""

    @pytest.mark.parametrize("maxiter", [None, 7])
    def test_random_spd_system_matches_the_textbook_loop(self, rng, maxiter):
        M = rng.standard_normal((60, 60))
        A = M @ M.T + 0.1 * np.eye(60)
        b = rng.standard_normal(60)
        got = pcg(lambda v: A @ v, b, np.diag(A), tol=1e-12, maxiter=maxiter)
        want = pcg_textbook(lambda v: A @ v, b, np.diag(A), tol=1e-12, maxiter=maxiter)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("n, k", [(8, 1), (12, 2)])
    def test_constrained_solve_matches_the_textbook_loop(self, n, k):
        sys_ = torus_system(n, k)
        rep = solve_constrained(sys_.S, sys_.c, sys_.f, tol=1e-9)
        u, its, ok = solve_constrained_textbook(sys_.S, sys_.c, sys_.f, tol=1e-9)
        assert rep.u.tobytes() == u.tobytes()
        assert (rep.iterations, rep.converged) == (its, ok)


# Solves a 20,000-unknown shifted tridiagonal system and prints the
# iteration count and the bytes of u; long enough for OpenBLAS to thread
# a BLAS dot product.
_THREAD_PROBE = """
import hashlib
import numpy as np
import scipy.sparse as sp
from tracefem.solver import solve_constrained
n = 20000
S = sp.diags([-np.ones(n - 1), np.full(n, 2.0001), -np.ones(n - 1)], [-1, 0, 1], format="csr")
rng = np.random.default_rng(0)
rep = solve_constrained(S, rng.uniform(0.5, 1.5, n), rng.standard_normal(n), tol=1e-9)
print(rep.iterations, hashlib.sha256(rep.u.tobytes()).hexdigest())
"""


class TestDeterminism:
    def test_solve_is_independent_of_the_blas_thread_count(self):
        src = os.path.dirname(os.path.dirname(tracefem.__file__))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, check=True
            )
            outs.append(run.stdout)
        assert outs[0] == outs[1]
