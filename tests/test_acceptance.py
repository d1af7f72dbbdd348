"""End-to-end acceptance gate for the library.

Each test below is one release criterion; ``pytest -v tests/test_acceptance.py``
prints one pass/fail line per criterion.  The refinement studies and the
conditioning sweep are the expensive steps, so they run once and are shared
between criteria through a module-level cache.  Thresholds sit next to the
assertions they guard, together with the margins we measure on this pipeline.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from tracefem.assembly import StabConfig, assemble_system
from tracefem.cutquad import extract_cuts, tet_rule, triangle_rule
from tracefem.levelset import Plane, ZeroBenchmark, shifted_plane
from tracefem.mapping import DELTA_FRACTION, _solve_points, build_theta, facet_jump_psi
from tracefem.mesh import ActiveMesh, MeshParams
from tracefem.metrics import estimate_condition, normal_deviation
from tracefem.reference import interpolate
from tracefem.solver import pcg, solve_constrained
from tracefem.study import StudyConfig, run_conditioning, run_convergence

from helpers import (
    clip_polygon_oracle,
    max_displacement,
    null_space_bounds,
    plane_case,
    polygon_area,
    smallest_root_bisection,
    torus_benchmark,
    torus_case,
)

UNIT_TET = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)

_RUNS: dict = {}


def torus_study(k, levels, base_n, rho=None):
    """Cached torus refinement study; returns (per-level reports, seconds)."""
    key = (k, levels, base_n, rho)
    if key not in _RUNS:
        cfg = StudyConfig(
            benchmark="torus",
            k=k,
            levels=levels,
            base_n=base_n,
            stab="normal_volume",
            rho=rho,
            tol=1e-9,
        )
        t0 = time.perf_counter()
        _, reports = run_convergence(cfg)
        _RUNS[key] = (reports, time.perf_counter() - t0)
    return _RUNS[key]


def conditioning_sweep():
    """Cached plane-shift sweep on the 8^3 mesh at k=2, shifts over 5 decades."""
    if "conditioning" not in _RUNS:
        cfg = StudyConfig(
            benchmark="plane",
            k=2,
            base_n=8,
            stab="normal_volume",
            conditioning=True,
            shifts=(0.5, 1e-1, 1e-3, 1e-5),
            tol=1e-9,
        )
        t0 = time.perf_counter()
        _, reports = run_conditioning(cfg)
        _RUNS["conditioning"] = (reports, time.perf_counter() - t0)
    return _RUNS["conditioning"]


def eoc_steps(reports, key):
    vals = [r[key] for r in reports]
    return [float(np.log2(vals[i - 1] / vals[i])) for i in range(1, len(vals))]


def test_criterion_1_geometry_convergence_order():
    """Surface distance decays at order k+1 on the torus for k = 2, 3."""
    rep2, t2 = torus_study(2, 3, 16)
    rep3, t3 = torus_study(3, 2, 16)
    assert eoc_steps(rep2, "e_dist")[-1] >= 2.6  # measured ~2.87
    assert eoc_steps(rep3, "e_dist")[-1] >= 3.6  # measured ~3.98
    assert t2 + t3 <= 600.0


def test_criterion_2_solution_convergence_orders():
    """Tangential H1 error decays at order k, L2 error at order k+1."""
    rep2, _ = torus_study(2, 3, 16)
    rep3, _ = torus_study(3, 2, 16)
    assert eoc_steps(rep2, "e_h1t")[-1] >= 1.7  # measured ~1.93
    assert eoc_steps(rep2, "e_l2")[-1] >= 2.6  # measured ~2.95
    assert eoc_steps(rep3, "e_h1t")[-1] >= 2.7  # measured ~2.84
    assert eoc_steps(rep3, "e_l2")[-1] >= 3.6  # measured ~3.97


def test_criterion_3_normal_derivative_control():
    """rho ~ 1/h keeps the normal residual at order k; rho ~ h lets it stall."""
    rep2, _ = torus_study(2, 3, 16)
    assert eoc_steps(rep2, "e_h1n")[-1] >= 1.7  # measured ~1.92

    hinv, _ = torus_study(1, 4, 16)
    hlin, _ = torus_study(1, 4, 16, rho=("custom", 1.0, 1.0))
    eocs_hinv = eoc_steps(hinv, "e_h1n")
    eocs_hlin = eoc_steps(hlin, "e_h1n")
    assert abs(eocs_hinv[-1] - 1.0) <= 0.3  # measured 0.96
    assert abs(eocs_hlin[-1] - 0.0) <= 0.3  # measured 0.16
    assert all(a < b for a, b in zip(eocs_hlin, eocs_hinv))


def test_criterion_4_conditioning_uniform_in_the_interface_position():
    """Stabilized conditioning moves < 10x over shifts; unstabilized blows up."""
    reports, elapsed = conditioning_sweep()
    cond = {(r["variant"], r["eps"]): r["cond"] for r in reports}
    shifts = (0.5, 1e-1, 1e-3, 1e-5)
    nv = [cond[("normal_volume", s)] for s in shifts]
    assert all(np.isfinite(v) for v in nv)
    assert max(nv) <= 10.0 * min(nv)  # measured spread ~1.8x
    # without stabilization the operator restricted to the constraint
    # hyperplane is numerically singular, so its condition estimate is
    # infinite and in particular >= 1e3 times the stabilized one
    assert cond[("none", shifts[-1])] >= 1e3 * cond[("normal_volume", shifts[-1])]
    assert elapsed <= 120.0


def test_criterion_5_solver_iteration_scaling():
    """Jacobi-PCG iterations roughly double per refinement (cond ~ h^-2)."""
    rep1, _ = torus_study(1, 4, 16)
    rep2, _ = torus_study(2, 3, 16)
    for rep in (rep1, rep2):
        ratio = rep[-1]["n_its"] / rep[-2]["n_its"]
        assert 1.5 <= ratio <= 2.6  # measured 2.03 (k=1), 2.02 (k=2)


def test_criterion_6_mapping_decay_rates():
    """Facet jumps of Psi decay at order >= k+1; mapped normals at >= k."""
    for k in (2, 3):
        jump, dev = [], []
        for n in (16, 32):
            ls, mesh, dls, mapping = torus_case(n, k)
            jump.append(facet_jump_psi(dls))
            dev.append(normal_deviation(mapping, ls))
        assert np.log2(jump[0] / jump[1]) >= k + 0.6  # measured 4.27 / 6.13
        assert np.log2(dev[0] / dev[1]) >= k - 0.3  # measured 1.94 / 2.99


class _Quadratic:
    """phi(x) = x0^2 - 0.25, reproduced exactly by k >= 2 interpolation."""

    def phi(self, x):
        x = np.atleast_2d(x)
        return x[:, 0] ** 2 - 0.25

    def grad_phi(self, x):
        x = np.atleast_2d(x)
        g = np.zeros_like(x)
        g[:, 0] = 2.0 * x[:, 0]
        return g


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(2024)

    # interface polygon areas against an independent half-space clipper
    count = 0
    while count < 300:
        vphi = rng.standard_normal(4)
        if vphi.min() >= 0 or vphi.max() <= 0:
            continue
        verts = UNIT_TET + 0.2 * rng.standard_normal((4, 3))
        area = extract_cuts(vphi[None], verts[None])[-1]
        oracle = polygon_area(clip_polygon_oracle(vphi, verts))
        assert area.sum() == pytest.approx(oracle, abs=1e-10)
        count += 1

    # simplex rules integrate every monomial the degree-k forms need
    for k in range(1, 6):
        deg = max(0, 2 * k - 2)
        lam_t, w_t = triangle_rule(deg)
        lam_v, w_v = tet_rule(deg)
        for powers in itertools.product(range(deg + 1), repeat=3):
            if sum(powers) > deg:
                continue
            got = np.sum(w_t * np.prod(lam_t ** np.asarray(powers), axis=1))
            exact = 2.0 * np.prod(
                [math.factorial(p) for p in powers]
            ) / math.factorial(sum(powers) + 2)
            assert got == pytest.approx(exact, rel=1e-12)
        for powers in itertools.product(range(deg + 1), repeat=4):
            if sum(powers) > deg:
                continue
            got = np.sum(w_v * np.prod(lam_v ** np.asarray(powers), axis=1))
            exact = 6.0 * np.prod(
                [math.factorial(p) for p in powers]
            ) / math.factorial(sum(powers) + 3)
            assert got == pytest.approx(exact, rel=1e-12)

    # deformation distances against a sign-change bisection of the same root
    q = _Quadratic()
    mesh = ActiveMesh.build(MeshParams(6), q, 2)
    dls = interpolate(q, mesh)
    delta = DELTA_FRACTION * mesh.h
    build_theta(dls)  # every node is solvable
    for elem in rng.integers(0, mesh.nelems, size=8):
        x = mesh.dof_points[mesh.elem_dofs[elem]]
        lam = mesh.bary_of_points(np.full(len(x), elem), x)
        phihat = np.einsum("pm,m->p", lam, mesh.vertex_phi[elem])
        G = q.grad_phi(x)
        d, _ = _solve_points(dls, np.full(len(x), elem), x)
        for p in range(len(x)):
            def g(t, p=p):
                return q.phi(x[p] + t * G[p])[0] - phihat[p]

            if abs(g(0.0)) <= 1e-12 * max(1.0, abs(phihat[p])):
                oracle = 0.0  # already on target within the solve tolerance
            else:
                oracle = smallest_root_bisection(g, delta)
            assert d[p] == pytest.approx(oracle, abs=1e-10)

    # conjugate gradients against a dense direct solve
    M = rng.standard_normal((50, 50))
    A = M @ M.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x, _, ok, _ = pcg(lambda v: A @ v, b, np.diag(A), tol=1e-12)
    assert ok
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-7)

    # extreme-eigenvalue estimates against a dense eigensolver on an orthonormal basis of c-perp
    n = 8
    ls = shifted_plane(0.5, n)
    mesh, dls, mapping = plane_case(ls, n, 2)
    sysm = assemble_system(
        mesh, dls, mapping, ZeroBenchmark(ls), StabConfig("normal_volume")
    )
    lmax, lmin = estimate_condition(sysm.S, sysm.c)
    rmax, rmin = null_space_bounds(sysm.S, sysm.c)
    assert abs(lmax - rmax) <= 1e-13 * rmax
    assert abs(lmin - rmin) <= 1e-13 * rmax


def test_criterion_8_exact_identities():
    # degree 1: the deformation is the identity by construction
    _, _, _, map1 = torus_case(8, 1)
    assert max_displacement(map1) == 0.0

    # affine level sets: the deformation is the identity for every degree
    for k in (2, 3):
        _, _, mapping = plane_case(Plane((0.3, -0.2, 0.9), 0.17), 6, k)
        assert max_displacement(mapping) <= 1e-13

    # assembled torus system: corrected load is orthogonal to constants,
    # and the solve lands on the constraint hyperplane
    _, mesh, dls, mapping = torus_case(16, 2)
    sysm = assemble_system(
        mesh, dls, mapping, torus_benchmark(), StabConfig("normal_volume")
    )
    ones = np.ones(mesh.ndofs)  # the coefficient vector of the constant one
    fe = abs(sysm.f @ ones)
    assert fe <= 1e-12 * np.linalg.norm(sysm.f) * np.sqrt(mesh.ndofs)
    rep = solve_constrained(sysm.S, sysm.c, sysm.f, tol=1e-9)
    cu = abs(sysm.c @ rep.u) / (np.linalg.norm(sysm.c) * np.linalg.norm(rep.u))
    assert cu <= 1e-9

    # the operator is symmetric, PSD, and kills the constant vector
    scale = abs(sysm.S).max()
    assert abs(sysm.S - sysm.S.T).max() <= 1e-14 * scale
    assert np.abs(sysm.S @ ones).max() <= 1e-12 * scale
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(mesh.ndofs)
        assert x @ (sysm.S @ x) >= -1e-12 * scale * (x @ x)
