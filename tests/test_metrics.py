"""Error measures and conditioning estimates against closed forms."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import brentq

import tracefem.metrics as metrics
from tracefem.assembly import StabConfig, assemble_constraint, assemble_a, assemble_system
from tracefem.levelset import Plane, ZeroBenchmark, shifted_plane
from tracefem.metrics import (
    DENSE_EIG_LIMIT,
    EigenEstimateError,
    ErrorReport,
    compute_errors,
    eoc,
    estimate_condition,
)

from helpers import plane_case, torus_benchmark, torus_case


class AffinePlaneProblem:
    """Exact solution u = a . x restricted to a coordinate plane."""

    def __init__(self, levelset, coef):
        self.levelset = levelset
        self.coef = np.asarray(coef, dtype=np.float64)

    def exact_solution(self, x):
        return np.atleast_2d(x) @ self.coef

    def exact_solution_gradient(self, x):
        return np.tile(self.coef, (len(np.atleast_2d(x)), 1))


class TestErrorMeasures:
    def test_all_errors_vanish_for_reproduced_affine_data(self):
        """On a flat section the interpolated affine solution is exact."""
        n = 8
        plane = shifted_plane(0.5, n)
        mesh, dls, mapping = plane_case(plane, n, 2)
        problem = AffinePlaneProblem(plane, (0.4, -1.2, 0.0))
        u = mesh.dof_points @ problem.coef
        rep = compute_errors(mesh, dls, mapping, u, problem)
        assert rep.e_dist <= 1e-13
        assert rep.e_l2 <= 1e-12
        assert rep.e_h1t <= 1e-12
        assert rep.e_h1n <= 1e-12
        assert rep.ndofs == mesh.ndofs and rep.h == mesh.h

    def test_closed_form_errors_for_coordinate_field(self):
        """u_h = x1 against the zero solution on the flat z-section."""
        n = 8
        plane = shifted_plane(0.5, n)
        mesh, dls, mapping = plane_case(plane, n, 1)
        problem = ZeroBenchmark(plane)
        u = mesh.dof_points[:, 0].copy()
        rep = compute_errors(mesh, dls, mapping, u, problem)
        assert rep.e_dist <= 1e-13
        assert rep.e_l2 == pytest.approx(np.sqrt(64.0 / 3.0), rel=1e-12)
        assert rep.e_h1t == pytest.approx(4.0, rel=1e-12)  # sqrt of the area
        assert rep.e_h1n <= 1e-12

    def test_normal_component_error_for_transverse_field(self):
        """u_h = x3 is purely normal on the z-section."""
        n = 8
        plane = shifted_plane(0.5, n)
        mesh, dls, mapping = plane_case(plane, n, 1)
        u = mesh.dof_points[:, 2].copy()
        rep = compute_errors(mesh, dls, mapping, u, ZeroBenchmark(plane))
        assert rep.e_h1t <= 1e-12
        assert rep.e_h1n == pytest.approx(4.0, rel=1e-12)

    def test_tangential_seminorm_matches_the_stiffness_energy(self, rng):
        """e_H1t of u_h against zero data equals sqrt(u' A u) at matching degree."""
        _, mesh, dls, mapping = torus_case(16, 2)
        u = rng.standard_normal(mesh.ndofs)
        rep = compute_errors(mesh, dls, mapping, u, ZeroBenchmark(torus_benchmark().levelset))
        A = assemble_a(mesh, dls, mapping, degree=2 * mesh.k)
        assert rep.e_h1t == pytest.approx(np.sqrt(u @ (A @ u)), rel=1e-10)

    def test_l2_of_exact_solution_matches_parametric_integral(self):
        """e_L2 with u_h = 0 integrates the exact solution over the lifted surface."""
        bench = torus_benchmark()
        _, mesh, dls, mapping = torus_case(16, 2)
        rep = compute_errors(mesh, dls, mapping, np.zeros(mesh.ndofs), bench)
        assert rep.e_l2 == pytest.approx(bench.solution_l2_norm(), rel=5e-3)

    def test_distance_is_stable_under_quadrature_refinement(self):
        bench = torus_benchmark()
        _, mesh, dls, mapping = torus_case(16, 2)
        u = np.zeros(mesh.ndofs)
        base = compute_errors(mesh, dls, mapping, u, bench, degree=4).e_dist
        fine = compute_errors(mesh, dls, mapping, u, bench, degree=6).e_dist
        assert fine == pytest.approx(base, rel=0.05)

    def test_coefficient_shape_validated(self):
        bench = torus_benchmark()
        _, mesh, dls, mapping = torus_case(8, 1)
        with pytest.raises(ValueError, match="dof count"):
            compute_errors(mesh, dls, mapping, np.zeros(3), bench)


class TestEoc:
    def test_halving_rates(self):
        assert eoc([0.4, 0.1]) == [pytest.approx(2.0)]
        assert eoc([8.0, 4.0, 2.0]) == [pytest.approx(1.0)] * 2

    def test_non_positive_entries_marked(self):
        out = eoc([1.0, 0.0, 2.0])
        assert np.isnan(out[0]) and np.isnan(out[1])

    def test_empty_and_single(self):
        assert eoc([]) == []
        assert eoc([1.0]) == []


def null_space_bounds(S, c):
    """Reference: S on an orthonormal basis of c-perp from scipy.linalg.null_space."""
    Q = scipy.linalg.null_space(c[None, :])
    w = scipy.linalg.eigvalsh(Q.T @ (S @ Q))
    return w[-1], w[0]


@pytest.fixture(scope="module")
def plane_k2_systems():
    """The plane k=2 n=8 systems of the four k=2 sweep variants at shifts 0.5 and 1e-5."""
    n = 8
    systems = {}
    for eps in (0.5, 1e-5):
        plane = shifted_plane(eps, n)
        mesh, dls, mapping = plane_case(plane, n, 2)
        for variant in ("none", "normal_volume", "full_gradient_surface", "full_gradient_volume"):
            systems[eps, variant] = assemble_system(mesh, dls, mapping, ZeroBenchmark(plane), StabConfig(variant))
    return systems


class TestConditionEstimates:
    def test_dense_recovers_restricted_diagonal_spectrum(self):
        """With c on a coordinate axis the hyperplane spectrum is explicit."""
        S = sp.diags([3.0, 1.0, 7.0, 5.0, 42.0]).tocsr()
        c = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        lmax, lmin = estimate_condition(S, c, method="dense")
        assert lmax == pytest.approx(7.0, abs=1e-12)
        assert lmin == pytest.approx(1.0, abs=1e-12)

    def test_iterative_agrees_with_dense(self):
        n = 8
        mesh, dls, mapping = plane_case(shifted_plane(0.5, n), n, 2)
        sys = assemble_system(
            mesh, dls, mapping, ZeroBenchmark(shifted_plane(0.5, n)), StabConfig("normal_volume")
        )
        dmax, dmin = estimate_condition(sys.S, sys.c, method="dense")
        imax, imin = estimate_condition(sys.S, sys.c, method="iterative")
        assert imax == pytest.approx(dmax, rel=0.05)
        assert imin == pytest.approx(dmin, rel=0.05)

    def test_condition_number_grows_quadratically(self):
        """Stabilized systems scale like h^-2 between refinements."""
        conds = []
        for n in (8, 16):
            _, mesh, dls, mapping = torus_case(n, 1)
            sys = assemble_system(
                mesh, dls, mapping, torus_benchmark(), StabConfig("normal_volume")
            )
            lmax, lmin = estimate_condition(sys.S, sys.c, method="dense")
            assert lmin > 0
            conds.append(lmax / lmin)
        assert 2.0 < conds[1] / conds[0] < 8.0

    def test_unknown_method_rejected(self):
        S = sp.eye(3).tocsr()
        with pytest.raises(ValueError, match="method"):
            estimate_condition(S, np.array([1.0, 0.0, 0.0]), method="magic")

    def test_auto_uses_dense_for_small_systems(self):
        S = sp.diags([2.0, 3.0, 9.0, 4.0]).tocsr()
        c = np.array([0.0, 0.0, 0.0, 1.0])
        lmax, lmin = estimate_condition(S, c)  # auto; n << DENSE_EIG_LIMIT
        assert (lmax, lmin) == (pytest.approx(9.0), pytest.approx(2.0))

    def test_reflected_projection_matches_the_null_space_basis(self, plane_k2_systems):
        """One Householder reflection gives the spectral bounds of an orthonormal basis of c-perp."""
        for key, sys in plane_k2_systems.items():
            lmax, lmin = estimate_condition(sys.S, sys.c, method="dense")
            rmax, rmin = null_space_bounds(sys.S, sys.c)
            assert abs(lmax - rmax) <= 1e-13 * rmax, key
            assert abs(lmin - rmin) <= 1e-13 * rmax, key

    def test_reflector_sign_follows_the_largest_entry(self, rng):
        """A mixed-sign c whose largest entry is negative, on a random SPD matrix."""
        n = 40
        M = rng.standard_normal((n, n))
        S = sp.csr_matrix(M @ M.T + np.eye(n))
        c = rng.standard_normal(n)
        c[7] = -2.0 * np.abs(c).max()
        lmax, lmin = estimate_condition(S, c, method="dense")
        rmax, rmin = null_space_bounds(S, c)
        assert abs(lmax - rmax) <= 1e-13 * rmax
        assert abs(lmin - rmin) <= 1e-13 * rmax

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_constraint_rejected(self, bad):
        S = sp.eye(4).tocsr()
        c = np.array([bad, 0.0, 0.0, 0.0])
        for method in ("dense", "iterative"):
            with pytest.raises(ValueError, match="constraint vector"):
                estimate_condition(S, c, method=method)

    def test_dense_estimate_memory_is_two_dense_copies(self, plane_k2_systems):
        """At plane k=2 n=8 (867 dofs) the dense estimate peaks at most 2.5 dense n x n arrays."""
        sys = plane_k2_systems[0.5, "normal_volume"]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimate_condition(sys.S, sys.c, method="dense")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * sys.ndofs**2 * 8, f"{peak / 2**20:.1f} MiB"


class TestLobpcgEstimate:
    def test_matches_dense_on_the_plane_systems(self, plane_k2_systems):
        """Non-singular systems agree with the dense oracle; singular ones are refused."""
        for (eps, variant), sys in plane_k2_systems.items():
            if variant in ("none", "full_gradient_surface"):
                with pytest.raises(EigenEstimateError):
                    estimate_condition(sys.S, sys.c, method="iterative")
                continue
            dmax, dmin = estimate_condition(sys.S, sys.c, method="dense")
            imax, imin = estimate_condition(sys.S, sys.c, method="iterative")
            assert imax == pytest.approx(dmax, rel=1e-4), (eps, variant)
            assert imin == pytest.approx(dmin, rel=1e-3), (eps, variant)

    def test_large_diagonal_system_within_closed_form_bounds(self, rng):
        """Above 20,000 unknowns: D on c-perp, with two low and two high outliers of D.

        Cauchy interlacing gives d1 <= lambda_min <= d2 and d_{n-1} <= lambda_max <= d_n;
        lambda_min and lambda_max are the extreme roots of sum_i c_i^2 / (d_i - mu) = 0.
        """
        n = 20_500
        d = np.sort(np.concatenate([[0.1, 0.2, 10.0, 20.0], rng.uniform(1.0, 2.0, n - 4)]))
        c = rng.standard_normal(n)
        lmax, lmin = estimate_condition(sp.diags(d).tocsr(), c, method="iterative")
        assert d[0] <= lmin <= d[1] and d[-2] <= lmax <= d[-1]

        def secular(mu):
            return np.sum(c**2 / (d - mu))

        tiny = 1e-12
        assert lmin == pytest.approx(brentq(secular, d[0] + tiny, d[1] - tiny, xtol=1e-14), rel=1e-8)
        assert lmax == pytest.approx(brentq(secular, d[-2] + tiny, d[-1] - tiny, xtol=1e-14), rel=1e-8)

    def test_non_convergence_raises_without_a_warning(self, plane_k2_systems, monkeypatch):
        sys = plane_k2_systems[0.5, "normal_volume"]
        monkeypatch.setattr(metrics, "LOBPCG_MAXITER", 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EigenEstimateError, match="residual"):
                estimate_condition(sys.S, sys.c, method="iterative")
        assert caught == []
