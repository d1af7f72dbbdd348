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
    augment_gamma,
    default_maxiter,
    pcg,
    solve_constrained,
)

from helpers import pcg_textbook, solve_constrained_textbook, torus_benchmark, torus_case


def torus_system(n=8, k=1, stab="normal_volume"):
    _, mesh, dls, mapping = torus_case(n, k)
    return assemble_system(mesh, dls, mapping, torus_benchmark(), StabConfig(stab))


class TestAugmentation:
    def test_gamma_is_trace_over_constraint_norm(self):
        S = sp.diags([1.0, 2.0, 3.0]).tocsr()
        c = np.array([0.0, 2.0, 0.0])
        assert augment_gamma(S, c) == pytest.approx(6.0 / 4.0)

    def test_gamma_is_scale_homogeneous(self):
        """Scaling S and c together leaves the augmented system consistent."""
        sys = torus_system()
        g = augment_gamma(sys.S, sys.c)
        assert augment_gamma(4.0 * sys.S, sys.c) == pytest.approx(4.0 * g)
        assert augment_gamma(sys.S, 2.0 * sys.c) == pytest.approx(g / 4.0)

    def test_zero_constraint_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            augment_gamma(sp.eye(3).tocsr(), np.zeros(3))

    def test_augmented_operator_is_positive_definite(self):
        """The rank-one term lifts the constant kernel of S."""
        sys = torus_system()
        gamma = augment_gamma(sys.S, sys.c)
        dense = sys.S.toarray() + gamma * np.outer(sys.c, sys.c)
        np.linalg.cholesky(dense + 1e-14 * np.eye(len(sys.c)) * dense.diagonal().max())


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
        # the augmentation enforces the mean-value constraint as a by-product
        cu = abs(sys.c @ rep.u) / (np.linalg.norm(sys.c) * np.linalg.norm(rep.u))
        assert cu <= 1e-9

    def test_matches_dense_constrained_solve(self):
        """Saddle-point elimination: dense solve of the augmented operator."""
        sys = torus_system()
        gamma = augment_gamma(sys.S, sys.c)
        dense = sys.S.toarray() + gamma * np.outer(sys.c, sys.c)
        expected = np.linalg.solve(dense, sys.f)
        rep = solve_constrained(sys.S, sys.c, sys.f, tol=1e-12)
        scale = np.linalg.norm(expected)
        assert np.linalg.norm(rep.u - expected) <= 1e-7 * scale

    def test_gamma_override_is_used(self):
        sys = torus_system()
        rep = solve_constrained(sys.S, sys.c, sys.f, gamma=2.5)
        assert rep.gamma == 2.5
        rep_auto = solve_constrained(sys.S, sys.c, sys.f)
        assert rep_auto.gamma == pytest.approx(augment_gamma(sys.S, sys.c))

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
            solve_constrained(S, np.zeros(3) + 1e-30, np.ones(3), gamma=1.0)


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
