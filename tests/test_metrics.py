"""Error measures and conditioning estimates against closed forms."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import brentq

import tracefem.metrics as metrics
from tracefem.assembly import StabConfig, SurfaceData, assemble_system
from tracefem.levelset import Plane, ZeroBenchmark, shifted_plane
from tracefem.metrics import (
    EigenEstimateError,
    ErrorReport,
    compute_errors,
    eoc,
    estimate_condition,
    normal_deviation,
)
from tracefem.vtkio import export_level

from helpers import (
    benchmark_interpolant,
    chunk_peaks,
    errors_oracle,
    null_space_bounds,
    plane_case,
    torus_benchmark,
    torus_case,
    torus_solution_l2_norm,
)


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
        rep = compute_errors(mapping, u, problem)
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
        rep = compute_errors(mapping, u, problem)
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
        rep = compute_errors(mapping, u, ZeroBenchmark(plane))
        assert rep.e_h1t <= 1e-12
        assert rep.e_h1n == pytest.approx(4.0, rel=1e-12)

    def test_tangential_seminorm_matches_the_stiffness_energy(self, rng):
        """e_H1t of u_h against zero data equals sqrt(u' A u) at the assembly's degree 2k - 2."""
        _, mesh, dls, mapping = torus_case(16, 2)
        u = rng.standard_normal(mesh.ndofs)
        zero = ZeroBenchmark(torus_benchmark().levelset)
        rep = compute_errors(mapping, u, zero, degree=2 * mesh.k - 2)
        A = assemble_system(mesh, dls, mapping, zero, StabConfig("none")).S
        assert rep.e_h1t == pytest.approx(np.sqrt(u @ (A @ u)), rel=1e-10)

    def test_l2_of_exact_solution_matches_parametric_integral(self):
        """e_L2 with u_h = 0 integrates the exact solution over the lifted surface."""
        bench = torus_benchmark()
        _, mesh, dls, mapping = torus_case(16, 2)
        rep = compute_errors(mapping, np.zeros(mesh.ndofs), bench)
        assert rep.e_l2 == pytest.approx(torus_solution_l2_norm(bench.levelset), rel=5e-3)

    def test_distance_is_stable_under_quadrature_refinement(self):
        bench = torus_benchmark()
        _, mesh, dls, mapping = torus_case(16, 2)
        u = np.zeros(mesh.ndofs)
        base = compute_errors(mapping, u, bench, degree=4).e_dist
        fine = compute_errors(mapping, u, bench, degree=6).e_dist
        assert fine == pytest.approx(base, rel=0.05)

    def test_coefficient_shape_validated(self):
        bench = torus_benchmark()
        _, mesh, dls, mapping = torus_case(8, 1)
        with pytest.raises(ValueError, match="dof count"):
            compute_errors(mapping, np.zeros(3), bench)


class TestStreamedErrors:
    @pytest.mark.parametrize("n, k", [(16, 1), (16, 3)])
    def test_matches_the_whole_array_oracle(self, n, k, rng):
        """The chunk-by-chunk reduction gives the four integrals of one whole-surface evaluation."""
        bench = torus_benchmark()
        _, mesh, dls, mapping = torus_case(n, k)
        u = benchmark_interpolant(mesh, bench) + 1e-2 * rng.standard_normal(mesh.ndofs)
        rep = compute_errors(mapping, u, bench)
        oracle = errors_oracle(mesh, mapping, u, bench)
        got = (rep.e_dist, rep.e_l2, rep.e_h1t, rep.e_h1n)
        np.testing.assert_allclose(got, oracle, rtol=1e-13, atol=0.0)

    def test_peak_grows_by_at_most_256_bytes_per_point(self):
        """Between torus k=3 n=12 and n=24 the error stage holds no per-point array of the lifted rule."""
        bench = torus_benchmark()
        points, peaks = [], []
        for n in (12, 24):
            _, mesh, dls, mapping = torus_case(n, 3)
            points.append(len(SurfaceData.build(mapping, 2 * mesh.k).elems))
            u = np.zeros(mesh.ndofs)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                compute_errors(mapping, u, bench)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        per_point = (peaks[1] - peaks[0]) / (points[1] - points[0])
        assert per_point <= 256, f"{per_point:.0f} bytes per point"

    def test_peak_is_one_chunk_at_k3(self):
        """At torus k=3 n=16 the error stage, its cut included, allocates at most 5 MiB at its peak (2.0 measured): one chunk of points."""
        bench = torus_benchmark()
        _, mesh, dls, mapping = torus_case(16, 3)
        u = benchmark_interpolant(mesh, bench)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            compute_errors(mapping, u, bench)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestChunkLoops:
    @pytest.mark.parametrize("n, k", [(32, 1), (12, 3)])
    @pytest.mark.parametrize("stage", ["compute_errors", "normal_deviation", "export_level"])
    def test_each_loop_peaks_one_chunk_above_its_start(self, stage, n, k, tmp_path):
        """Every loop over lifted chunks frees a chunk before it lifts the next: its peak is one chunk above the loop's start.

        Keeping the previous chunk, normal_deviation at torus k=1 n=32
        peaked 4.21 MiB above the loop's start against 2.67 MiB above each
        chunk's start, and the VTK export's lifted points 4.09 MiB.
        """
        ls, mesh, dls, mapping = torus_case(n, k)
        bench = torus_benchmark()
        SurfaceData.build(mapping)  # the level's cut, made by its assembly
        run = {
            "compute_errors": lambda: compute_errors(mapping, benchmark_interpolant(mesh, bench), bench),
            "normal_deviation": lambda: normal_deviation(mapping, ls),
            "export_level": lambda: export_level(tmp_path, "t", mapping),
        }[stage]
        records = chunk_peaks(run)
        assert len(records) > 1
        chunk, loop = max(r[2] for r in records), max(r[3] for r in records)
        assert loop <= chunk + 2**16, f"{loop / 2**20:.2f} MiB above the loop's start, {chunk / 2**20:.2f} above a chunk's"


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
    """The test names predate the single bordered-factorization path; each checks the one estimate there is."""

    def test_dense_recovers_restricted_diagonal_spectrum(self):
        """With c on a coordinate axis the hyperplane spectrum is explicit."""
        S = sp.diags([3.0, 1.0, 7.0, 5.0, 42.0]).tocsr()
        c = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        lmax, lmin = estimate_condition(S, c)
        assert lmax == pytest.approx(7.0, abs=1e-12)
        assert lmin == pytest.approx(1.0, abs=1e-12)

    def test_condition_number_grows_quadratically(self):
        """Stabilized systems scale like h^-2 between refinements."""
        conds = []
        for n in (8, 16):
            _, mesh, dls, mapping = torus_case(n, 1)
            sys = assemble_system(
                mesh, dls, mapping, torus_benchmark(), StabConfig("normal_volume")
            )
            lmax, lmin = estimate_condition(sys.S, sys.c)
            assert lmin > 0
            conds.append(lmax / lmin)
        assert 2.0 < conds[1] / conds[0] < 8.0

    def test_reflected_projection_matches_the_null_space_basis(self, plane_k2_systems):
        """The projected operator and the bordered factorization give the spectral bounds of an orthonormal basis of c-perp."""
        for key, sys in plane_k2_systems.items():
            lmax, lmin = estimate_condition(sys.S, sys.c)
            rmax, rmin = null_space_bounds(sys.S, sys.c)
            assert abs(lmax - rmax) <= 1e-13 * rmax, key
            assert abs(lmin - rmin) <= 1e-13 * rmax, key

    def test_reflector_sign_follows_the_largest_entry(self, rng):
        """A mixed-sign c whose largest entry is negative, on a dense random SPD matrix: SuperLU pivots off the border's zero diagonal, so lambda_min is the lesser of two Lanczos runs."""
        n = 40
        M = rng.standard_normal((n, n))
        S = sp.csr_matrix(M @ M.T + np.eye(n))
        c = rng.standard_normal(n)
        c[7] = -2.0 * np.abs(c).max()
        lmax, lmin = estimate_condition(S, c)
        rmax, rmin = null_space_bounds(S, c)
        assert abs(lmax - rmax) <= 1e-13 * rmax
        assert abs(lmin - rmin) <= 1e-13 * rmax

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_constraint_rejected(self, bad):
        S = sp.eye(4).tocsr()
        c = np.array([bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="constraint vector"):
            estimate_condition(S, c)

    def test_indefinite_matrix_matches_the_null_space_basis(self, rng):
        """Nothing assumes definiteness: a random symmetric S, mixed-sign c, takes lambda_min from Lanczos on -(P S P + lambda_max chat chat')."""
        n = 40
        M = rng.standard_normal((n, n))
        S = sp.csr_matrix(M + M.T)
        c = rng.standard_normal(n)
        lmax, lmin = estimate_condition(S, c)
        rmax, rmin = null_space_bounds(S, c)
        assert rmin < 0.0 < rmax
        scale = max(abs(rmax), abs(rmin))
        assert abs(lmax - rmax) <= 1e-13 * scale
        assert abs(lmin - rmin) <= 1e-13 * scale

    def test_negative_ritz_values_bound_nothing(self):
        """S = +-1 alternating on c-perp: lambda_min is -1, though the first Ritz values of the inverse are negative and small.

        Stopping on 1 / theta - tau <= tau for a negative theta printed
        lambda_min between -26 and -2.6 for these sizes.
        """
        for m in range(3, 12):
            d = np.array([(-1.0) ** i for i in range(2 * m)] + [5.0])
            c = np.zeros(2 * m + 1)
            c[-1] = 1.0
            lmax, lmin = estimate_condition(sp.diags(d).tocsr(), c)
            assert lmax == pytest.approx(1.0, abs=1e-13) and lmin == pytest.approx(-1.0, abs=1e-13), m

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, bad):
        """Lanczos meets a value that is not finite; that is an error, not a value."""
        M = np.diag(np.arange(1.0, 9.0))
        M[2, 3] = M[3, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(np.linalg.LinAlgError):
                estimate_condition(sp.csr_matrix(M), np.ones(8))

    def test_one_unknown_rejected(self):
        """With one unknown c-perp is empty; there is no estimate."""
        with pytest.raises(ValueError, match="c-perp is empty"):
            estimate_condition(sp.csr_matrix([[2.0]]), np.array([1.0]))

    def test_two_unknowns_leave_one_value(self):
        """With two unknowns c-perp is a line: u = (1, -1) / sqrt(2) on c = (1, 1)."""
        S = sp.csr_matrix([[2.0, 1.0], [1.0, 5.0]])
        lmax, lmin = estimate_condition(S, np.array([1.0, 1.0]))
        assert lmax == lmin == pytest.approx(2.5, abs=1e-14)

    def test_large_diagonal_system_within_closed_form_bounds(self, rng):
        """Above 20,000 unknowns: D on c-perp, with two low and two high outliers of D.

        Cauchy interlacing gives d1 <= lambda_min <= d2 and d_{n-1} <= lambda_max <= d_n;
        lambda_min and lambda_max are the extreme roots of sum_i c_i^2 / (d_i - mu) = 0.
        """
        n = 20_500
        d = np.sort(np.concatenate([[0.1, 0.2, 10.0, 20.0], rng.uniform(1.0, 2.0, n - 4)]))
        c = rng.standard_normal(n)
        lmax, lmin = estimate_condition(sp.diags(d).tocsr(), c)
        assert d[0] <= lmin <= d[1] and d[-2] <= lmax <= d[-1]

        def secular(mu):
            return np.sum(c**2 / (d - mu))

        tiny = 1e-12
        assert lmin == pytest.approx(brentq(secular, d[0] + tiny, d[1] - tiny, xtol=1e-14), rel=1e-8)
        assert lmax == pytest.approx(brentq(secular, d[-2] + tiny, d[-1] - tiny, xtol=1e-14), rel=1e-8)

    def test_estimate_memory_at_plane_k2_n16(self):
        """At plane k=2 n=16 (3,267 dofs) one estimate allocates at most 8 MiB traced (5.9 measured).

        tracemalloc sees the bordered matrix (1.0 MiB), the copy of U made
        to read its diagonal and the Lanczos vectors, not SuperLU's own
        factor storage.  A dense (n - 1)^2 copy of S on c-perp would be
        81 MiB here.
        """
        plane = shifted_plane(0.5, 16)
        mesh, dls, mapping = plane_case(plane, 16, 2)
        sys = assemble_system(mesh, dls, mapping, ZeroBenchmark(plane), StabConfig("normal_volume"))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimate_condition(sys.S, sys.c)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_failed_factorization_raises(self, plane_k2_systems, monkeypatch):
        """SuperLU's "exactly singular" is an EigenEstimateError, not a value."""
        import scipy.sparse.linalg

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        sys = plane_k2_systems[0.5, "normal_volume"]
        with pytest.raises(EigenEstimateError, match="exactly singular"):
            estimate_condition(sys.S, sys.c)

    def test_singular_rows_print_round_off(self, plane_k2_systems):
        """Singular rows give |lambda_min| <= n eps lambda_max, the sweep's threshold.

        lambda_min is 1 / theta - tau with theta the Ritz value of the
        bordered inverse of largest magnitude (TestLanczos checks that mode).
        """
        for (eps, variant), sys in plane_k2_systems.items():
            if variant in ("none", "full_gradient_surface"):
                lmax, lmin = estimate_condition(sys.S, sys.c)
                assert abs(lmin) <= len(sys.c) * np.finfo(float).eps * lmax, (eps, variant, lmin)

    def test_singular_rows_stop_after_a_few_solves(self, plane_k2_systems, monkeypatch):
        """A singular row stops as soon as a Ritz value proves lambda_min <= tau.

        Without that exit the none rows, whose 162-fold cluster of the
        inverse sits at 1 / tau, took 31 (shift 0.5) and 122 (shift 1e-3)
        Lanczos steps; a non-singular row converges in under twenty.  Each
        step solves twice: once, and once more to refine.  The plane
        systems keep SuperLU's diagonal pivots, so their definiteness is
        read from U and no second Lanczos run follows.
        """
        import scipy.sparse.linalg

        solves, factors, original = [], [], scipy.sparse.linalg.splu

        class Counting:
            def __init__(self, lu):
                self.lu = lu

            def __getattr__(self, name):
                return getattr(self.lu, name)

            def solve(self, b):
                solves[-1] += 1
                return self.lu.solve(b)

        def counting(*args, **kwargs):
            factors.append(original(*args, **kwargs))
            return Counting(factors[-1])

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
        for (eps, variant), sys in plane_k2_systems.items():
            solves.append(0)
            estimate_condition(sys.S, sys.c)
            bound = 2 * (4 if variant in ("none", "full_gradient_surface") else 40)
            assert 0 < solves[-1] <= bound, (eps, variant, solves[-1])
            assert (factors[-1].perm_r == factors[-1].perm_c).all(), (eps, variant)

    def test_two_calls_return_identical_bits(self, plane_k2_systems):
        for key in ((0.5, "normal_volume"), (0.5, "none"), (1e-5, "full_gradient_surface")):
            sys = plane_k2_systems[key]
            first = estimate_condition(sys.S, sys.c)
            second = estimate_condition(sys.S, sys.c)
            assert [x.hex() for x in first] == [x.hex() for x in second], key

class TestLanczos:
    """metrics._lanczos against numpy.linalg.eigvalsh on small dense matrices."""

    @staticmethod
    def matrix(kind, rng, n=30):
        M = rng.standard_normal((n, n))
        if kind == "spd":
            return M @ M.T + 0.1 * np.eye(n)
        if kind == "indefinite":
            return M + M.T
        return M + M.T - 4.0 * np.sqrt(n) * np.eye(n)  # negative definite: the two modes pick opposite ends

    @pytest.mark.parametrize("kind", ["spd", "indefinite", "negative"])
    @pytest.mark.parametrize("magnitude", [False, True])
    def test_extreme_eigenvalue_matches_eigvalsh(self, kind, magnitude, rng):
        A = self.matrix(kind, rng)
        w = np.linalg.eigvalsh(A)
        want = w[np.argmax(np.abs(w))] if magnitude else w[-1]
        start = rng.standard_normal(len(A))
        theta = metrics._lanczos(lambda x: A @ x, start / np.linalg.norm(start), magnitude=magnitude)
        assert abs(theta - want) <= 1e-13 * np.abs(w).max(), (theta, want)

    @pytest.mark.parametrize("stride", [1, 5])
    def test_stop_ends_at_the_first_check(self, stride, rng):
        A = self.matrix("spd", rng)
        calls = []

        def apply(x):
            calls.append(1)
            return A @ x

        start = rng.standard_normal(len(A))
        metrics._lanczos(apply, start / np.linalg.norm(start), stop=lambda theta: True, stride=stride)
        assert len(calls) == stride

    def test_non_finite_operator_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            metrics._lanczos(lambda x: np.full_like(x, np.nan), np.ones(4) / 2.0)
