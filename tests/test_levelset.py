import numpy as np
import pytest
from helpers import (
    closest_point,
    fd_laplace_beltrami_sphere,
    fd_laplace_beltrami_torus,
    torus_point,
    torus_solution_l2_norm,
    torus_surface_integral,
    torus_u,
)

from tracefem.levelset import (
    Plane,
    SingularPointError,
    Sphere,
    SphereBenchmark,
    Torus,
    TorusBenchmark,
    ZeroBenchmark,
    make_benchmark,
    shifted_plane,
)

TORUS = Torus()
SPHERE = Sphere()
BENCH = TorusBenchmark()


def pt(*xyz):
    """One point as a batch of one, (1, 3)."""
    return np.array([xyz], dtype=np.float64)


def random_tube_points(rng, levelset, band, count):
    """Rejection-sample points of the box with |phi| below the band."""
    out = []
    while sum(len(o) for o in out) < count:
        x = rng.uniform(-2.0, 2.0, size=(4 * count, 3))
        keep = np.abs(levelset.phi(x)) < band
        out.append(x[keep])
    return np.concatenate(out)[:count]


class TestTorusValues:
    def test_phi_axis_point(self):
        assert TORUS.phi(pt(0.0, 0.0, 0.0)) == pytest.approx(0.4, abs=1e-15)

    def test_phi_outer_equator(self):
        assert TORUS.phi(pt(1.6, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_phi_tube_top(self):
        assert TORUS.phi(pt(1.0, 0.0, 0.6)) == pytest.approx(0.0, abs=1e-15)

    def test_grad_outer_equator(self):
        np.testing.assert_allclose(TORUS.grad_phi(pt(1.6, 0.0, 0.0)), [[1.0, 0.0, 0.0]], atol=1e-14)

    def test_grad_singular_on_axis(self):
        with pytest.raises(SingularPointError):
            TORUS.grad_phi(pt(0.0, 0.0, 0.0))

    def test_grad_singular_on_core_circle(self):
        with pytest.raises(SingularPointError):
            TORUS.grad_phi(pt(1.0, 0.0, 0.0))

    def test_closest_point_radial(self):
        np.testing.assert_allclose(closest_point(TORUS, pt(2.0, 0.0, 0.0)), [[1.6, 0.0, 0.0]], atol=1e-14)

    def test_closest_point_vertical(self):
        np.testing.assert_allclose(closest_point(TORUS, pt(1.0, 0.0, 1.0)), [[1.0, 0.0, 0.6]], atol=1e-14)

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            Torus(R=0.5, r=0.6)


class TestSphereValues:
    def test_phi(self):
        assert SPHERE.phi(pt(0.0, 0.0, 2.0)) == pytest.approx(1.0, abs=1e-15)

    def test_grad_radial(self):
        np.testing.assert_allclose(SPHERE.grad_phi(pt(0.0, 0.0, 2.0)), [[0.0, 0.0, 1.0]], atol=1e-15)

    def test_closest_point(self):
        np.testing.assert_allclose(closest_point(SPHERE, pt(0.0, 0.0, 0.5)), [[0.0, 0.0, 1.0]], atol=1e-15)

    def test_center_singular(self):
        with pytest.raises(SingularPointError):
            SPHERE.grad_phi(pt(0.0, 0.0, 0.0))


class TestPlane:
    def test_normal_is_normalized(self):
        p = Plane((0.0, 0.0, 2.0), 1.0)
        assert p.phi(pt(0.0, 0.0, 3.0)) == pytest.approx(2.0, abs=1e-15)
        np.testing.assert_allclose(p.grad_phi(pt(0.3, -0.4, 0.9)), [[0.0, 0.0, 1.0]], atol=1e-15)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Plane((0.0, 0.0, 0.0), 0.0)

    def test_closest_point_projection(self):
        p = Plane((0.0, 0.0, 1.0), 0.25)
        np.testing.assert_allclose(closest_point(p, pt(1.0, 2.0, 3.0)), [[1.0, 2.0, 0.25]], atol=1e-14)

    def test_shifted_plane_sits_between_lattice_planes(self):
        n, eps = 8, 0.25
        p = shifted_plane(eps, n)
        h = 4.0 / n
        base = -2.0 + (n // 2) * h
        assert p.phi(pt(0.7, -1.1, base + eps * h)) == pytest.approx(0.0, abs=1e-14)

    def test_shifted_plane_validates_fraction(self):
        for eps in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                shifted_plane(eps, 8)


class TestSignedDistanceProperties:
    @pytest.mark.parametrize("levelset", [TORUS, SPHERE], ids=["torus", "sphere"])
    def test_distance_matches_phi(self, rng, levelset):
        band = 0.3 if isinstance(levelset, Torus) else 0.5
        x = random_tube_points(rng, levelset, band, 10_000)
        cp = closest_point(levelset, x)
        dist = np.linalg.norm(x - cp, axis=-1)
        np.testing.assert_allclose(dist, np.abs(levelset.phi(x)), atol=1e-12)

    @pytest.mark.parametrize("levelset", [TORUS, SPHERE], ids=["torus", "sphere"])
    def test_projection_idempotent(self, rng, levelset):
        x = random_tube_points(rng, levelset, 0.3, 2_000)
        cp = closest_point(levelset, x)
        np.testing.assert_allclose(closest_point(levelset, cp), cp, atol=1e-12)
        np.testing.assert_allclose(levelset.phi(cp), 0.0, atol=1e-12)

    def test_grad_is_unit_near_surface(self, rng):
        x = random_tube_points(rng, TORUS, 0.3, 2_000)
        g = TORUS.grad_phi(x)
        np.testing.assert_allclose(np.linalg.norm(g, axis=-1), 1.0, atol=1e-12)


class TestTorusBenchmark:
    def test_solution_at_reference_angles(self):
        assert BENCH.exact_solution(pt(1.6, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-14)
        x = torus_point(np.pi / 6.0, 0.0)
        assert BENCH.exact_solution(x[None]) == pytest.approx(np.cos(np.pi / 6.0), rel=1e-13)
        assert BENCH.exact_solution(pt(1.0, 0.0, 0.6)) == pytest.approx(0.0, abs=1e-13)

    def test_rhs_matches_finite_difference_laplacian(self, rng):
        phi_ang = rng.uniform(0.0, 2.0 * np.pi, 1_000)
        theta = rng.uniform(0.0, 2.0 * np.pi, 1_000)
        x = torus_point(phi_ang, theta)
        fd = fd_laplace_beltrami_torus(phi_ang, theta)
        np.testing.assert_allclose(BENCH.rhs(x), -fd, atol=1e-6)

    def test_data_constant_along_normals(self, rng):
        phi_ang = rng.uniform(0.0, 2.0 * np.pi, 200)
        theta = rng.uniform(0.0, 2.0 * np.pi, 200)
        x = torus_point(phi_ang, theta)
        off = x + 0.1 * TORUS.grad_phi(x)
        np.testing.assert_allclose(BENCH.exact_solution(off), BENCH.exact_solution(x), atol=1e-12)
        np.testing.assert_allclose(BENCH.rhs(off), BENCH.rhs(x), atol=1e-10)

    def test_extension_gradient_matches_finite_differences(self, rng):
        x = random_tube_points(rng, TORUS, 0.2, 300)
        g = BENCH.exact_solution_gradient(x)
        step = 1e-6
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = step
            fd = (BENCH.exact_solution(x + dx) - BENCH.exact_solution(x - dx)) / (2 * step)
            np.testing.assert_allclose(g[:, i], fd, atol=2e-6)

    def test_extension_gradient_tangential(self, rng):
        phi_ang = rng.uniform(0.0, 2.0 * np.pi, 500)
        theta = rng.uniform(0.0, 2.0 * np.pi, 500)
        x = torus_point(phi_ang, theta)
        g = BENCH.exact_solution_gradient(x)
        n = TORUS.grad_phi(x)
        np.testing.assert_allclose(np.einsum("pi,pi->p", g, n), 0.0, atol=1e-12)

    def test_solution_and_rhs_have_zero_mean(self):
        mean_u = torus_surface_integral(torus_u)
        assert abs(mean_u) <= 1e-8

        def f_angles(p, t):
            pts = torus_point(p, t).reshape(-1, 3)
            return BENCH.rhs(pts).reshape(p.shape)

        assert abs(torus_surface_integral(f_angles)) <= 1e-8

    def test_solution_l2_norm_closed_form(self):
        oracle = np.sqrt(torus_surface_integral(lambda p, t: torus_u(p, t) ** 2))
        assert torus_solution_l2_norm(BENCH.levelset) == pytest.approx(oracle, rel=1e-12)
        assert torus_solution_l2_norm(BENCH.levelset) == pytest.approx(np.sqrt(np.pi**2 * 1.0 * 0.6), rel=1e-14)

    def test_singular_axis_rejected(self):
        with pytest.raises(SingularPointError):
            BENCH.exact_solution_gradient(pt(0.0, 0.0, 0.3))


class TestSphereBenchmark:
    def test_rhs_is_degree_three_harmonic_identity(self, rng):
        bench = SphereBenchmark()
        x = rng.standard_normal((500, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        np.testing.assert_allclose(bench.rhs(x), 12.0 * x[:, 0] * x[:, 1] * x[:, 2], atol=1e-12)

    def test_rhs_matches_finite_difference_laplacian(self, rng):
        bench = SphereBenchmark()
        theta = rng.uniform(0.4, np.pi - 0.4, 1_000)
        phi_ang = rng.uniform(0.0, 2.0 * np.pi, 1_000)
        st, ct = np.sin(theta), np.cos(theta)
        x = np.stack([st * np.cos(phi_ang), st * np.sin(phi_ang), ct], axis=-1)
        fd = fd_laplace_beltrami_sphere(theta, phi_ang)
        np.testing.assert_allclose(bench.rhs(x), -fd, atol=1e-6)

    def test_gradient_matches_finite_differences(self, rng):
        bench = SphereBenchmark()
        x = rng.standard_normal((300, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        x *= rng.uniform(0.8, 1.2, size=(300, 1))
        g = bench.exact_solution_gradient(x)
        step = 1e-6
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = step
            fd = (bench.exact_solution(x + dx) - bench.exact_solution(x - dx)) / (2 * step)
            np.testing.assert_allclose(g[:, i], fd, atol=2e-6)


class TestRegistry:
    def test_known_names(self):
        for name, kind, levelset in (
            ("torus", TorusBenchmark, Torus),
            ("sphere", SphereBenchmark, Sphere),
            ("torus-zero", ZeroBenchmark, Torus),
            ("plane", ZeroBenchmark, Plane),
        ):
            bench = make_benchmark(name)
            assert type(bench) is kind and type(bench.levelset) is levelset

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_benchmark("klein-bottle")

    def test_zero_benchmark_is_identically_zero(self, rng):
        zb = ZeroBenchmark(TORUS)
        x = rng.uniform(-2.0, 2.0, (50, 3))
        assert np.all(zb.exact_solution(x) == 0.0)
        assert np.all(zb.rhs(x) == 0.0)
        assert np.all(zb.exact_solution_gradient(x) == 0.0)
