"""Analytic level-set surfaces and manufactured surface-PDE benchmarks.

Each surface is the zero set of a signed-distance function phi on a
bounding box.  Benchmarks pair a surface with an exact solution u of the
Laplace-Beltrami equation -lap_G u = f, int_G u = 0; both u and f are
extended off the surface as constants along exact normals, so they can
be evaluated directly at points of the discrete surface.  Every method
takes a batch of points (P, 3) and returns values (P,) or vectors (P, 3).
"""

from __future__ import annotations

import numpy as np

DEFAULT_BOX = (np.array([-2.0, -2.0, -2.0]), np.array([2.0, 2.0, 2.0]))


class SingularPointError(ValueError):
    """Evaluation requested on the singular set of the level-set gradient."""


class Torus:
    """Signed distance to a torus of major radius R, minor radius r.

    phi(x) = sqrt(x3^2 + (sqrt(x1^2 + x2^2) - R)^2) - r.  The gradient
    is singular on the x3-axis and on the core circle of the tube; both
    sit far from the zero set for r < R.
    """

    def __init__(self, R: float = 1.0, r: float = 0.6):
        if not 0.0 < r < R:
            raise ValueError("torus requires 0 < r < R")
        self.R = float(R)
        self.r = float(r)

    def _rho_q(self, x):
        rho = np.hypot(x[:, 0], x[:, 1])
        q = np.hypot(x[:, 2], rho - self.R)
        return rho, q

    def phi(self, x):
        rho, q = self._rho_q(x)
        return q - self.r

    def grad_phi(self, x):
        rho, q = self._rho_q(x)
        if np.any(rho <= 1e-12) or np.any(q <= 1e-12):
            raise SingularPointError("gradient undefined on the torus axis or core circle")
        s = (rho - self.R) / (q * rho)
        return np.stack([s * x[:, 0], s * x[:, 1], x[:, 2] / q], axis=-1)


class Sphere:
    """Signed distance to the origin-centered sphere of given radius."""

    def __init__(self, radius: float = 1.0):
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def phi(self, x):
        return np.linalg.norm(x, axis=-1) - self.radius

    def grad_phi(self, x):
        n = np.linalg.norm(x, axis=-1)
        if np.any(n <= 1e-12):
            raise SingularPointError("gradient undefined at the sphere center")
        return x / n[:, None]


class Plane:
    """Signed distance to the plane normal.x = offset, with unit normal."""

    def __init__(self, normal=(0.0, 0.0, 1.0), offset: float = 0.0):
        n = np.asarray(normal, dtype=np.float64)
        nn = np.linalg.norm(n)
        if nn == 0.0:
            raise ValueError("normal must be nonzero")
        self.normal = n / nn
        self.offset = float(offset)

    def phi(self, x):
        return x @ self.normal - self.offset

    def grad_phi(self, x):
        return np.broadcast_to(self.normal, x.shape).copy()


class TorusBenchmark:
    """Oscillatory benchmark on the torus.

    In toroidal angles, u = sin(3*phi_ang) * cos(3*theta + phi_ang); the
    right-hand side is -lap_G u written through the metric of the tube,
    with rt = R + r*cos(theta):

        lap_G u = u_pp / rt^2 + u_tt / r^2 - sin(theta) * u_t / (r * rt)
    """

    def __init__(self, R: float = 1.0, r: float = 0.6):
        self.levelset = Torus(R, r)

    def _parts(self, x):
        ls = self.levelset
        rho = np.hypot(x[:, 0], x[:, 1])
        pa = np.arctan2(x[:, 1], x[:, 0])
        th = np.arctan2(x[:, 2], rho - ls.R)
        return rho, pa, th

    def exact_solution(self, x):
        _, pa, th = self._parts(x)
        return np.sin(3.0 * pa) * np.cos(3.0 * th + pa)

    def exact_solution_gradient(self, x):
        """Gradient of the normal extension of u, analytic chain rule."""
        rho, pa, th = self._parts(x)
        ls = self.levelset
        if np.any(rho <= 1e-12):
            raise SingularPointError("extension gradient undefined on the torus axis")
        s3, c3 = np.sin(3.0 * pa), np.cos(3.0 * pa)
        sm, cm = np.sin(3.0 * th + pa), np.cos(3.0 * th + pa)
        u_p = 3.0 * c3 * cm - s3 * sm
        u_t = -3.0 * s3 * sm
        q2 = x[:, 2] ** 2 + (rho - ls.R) ** 2
        if np.any(q2 <= 1e-24):
            raise SingularPointError("extension gradient undefined on the core circle")
        grad_pa = np.stack([-x[:, 1], x[:, 0], np.zeros(len(x))], axis=-1) / rho[:, None] ** 2
        grad_th = (
            np.stack(
                [-x[:, 2] * x[:, 0] / rho, -x[:, 2] * x[:, 1] / rho, rho - ls.R], axis=-1
            )
            / q2[:, None]
        )
        return u_p[:, None] * grad_pa + u_t[:, None] * grad_th

    def rhs(self, x):
        _, pa, th = self._parts(x)
        ls = self.levelset
        s3, c3 = np.sin(3.0 * pa), np.cos(3.0 * pa)
        sm, cm = np.sin(3.0 * th + pa), np.cos(3.0 * th + pa)
        u_pp = -10.0 * s3 * cm - 6.0 * c3 * sm
        u_t = -3.0 * s3 * sm
        u_tt = -9.0 * s3 * cm
        rt = ls.R + ls.r * np.cos(th)
        lap = u_pp / rt**2 + u_tt / ls.r**2 - np.sin(th) * u_t / (ls.r * rt)
        return -lap


class SphereBenchmark:
    """Cubic harmonic benchmark on the unit-radius sphere: u = x1 x2 x3."""

    def __init__(self, radius: float = 1.0):
        self.levelset = Sphere(radius)

    def exact_solution(self, x):
        n = np.linalg.norm(x, axis=-1)
        return x[:, 0] * x[:, 1] * x[:, 2] / n**3

    def exact_solution_gradient(self, x):
        n = np.linalg.norm(x, axis=-1)
        xyz = x[:, 0] * x[:, 1] * x[:, 2]
        return np.stack(
            [x[:, 1] * x[:, 2], x[:, 0] * x[:, 2], x[:, 0] * x[:, 1]], axis=-1
        ) / n[:, None] ** 3 - 3.0 * xyz[:, None] * x / n[:, None] ** 5

    def rhs(self, x):
        # Degree-3 spherical harmonic: -lap_G u = 12 u on the unit sphere,
        # scaled by 1/radius^2 in general.
        n = np.linalg.norm(x, axis=-1)
        u = x[:, 0] * x[:, 1] * x[:, 2] / n**3
        return 12.0 * u / self.levelset.radius**2


class ZeroBenchmark:
    """u = 0, f = 0 on an arbitrary level-set surface (pipeline shakedown)."""

    def __init__(self, levelset):
        self.levelset = levelset

    def exact_solution(self, x):
        return np.zeros(len(x))

    def exact_solution_gradient(self, x):
        return np.zeros((len(x), 3))

    def rhs(self, x):
        return np.zeros(len(x))


def shifted_plane(eps: float, n: int) -> Plane:
    """Plane x3 = eps*h sitting a fraction eps above a lattice plane of the n^3 mesh of DEFAULT_BOX."""
    lo, hi = DEFAULT_BOX
    h = (hi[2] - lo[2]) / n
    if not 0.0 < eps < 1.0:
        raise ValueError("shift fraction must lie strictly inside (0, 1)")
    base = lo[2] + (n // 2) * h
    return Plane((0.0, 0.0, 1.0), base + eps * h)


BENCHMARKS = {
    "torus": TorusBenchmark,
    "sphere": SphereBenchmark,
    "torus-zero": lambda: ZeroBenchmark(Torus()),
    "plane": lambda: ZeroBenchmark(Plane()),
}


def make_benchmark(name: str):
    """Benchmark registry used by the study harness and the CLI."""
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}")
    return BENCHMARKS[name]()
