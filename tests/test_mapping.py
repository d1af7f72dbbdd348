"""Deformation root solve, patch averaging, and the assembled mapping."""

import tracemalloc

import numpy as np
import pytest

from tracefem import backends
from tracefem import mapping as mapping_module
from tracefem import mesh as mesh_module
from tracefem.assembly import SurfaceData, VolumeData
from tracefem.cutquad import triangle_rule
from tracefem.levelset import Plane, Torus
from tracefem.mapping import (
    DELTA_FRACTION,
    IsoMapping,
    Lift,
    MappingError,
    MappingInvertibilityError,
    build_theta,
)
from tracefem.mesh import ActiveMesh, MeshParams
from tracefem.reference import interpolate

from helpers import (
    bary_of_points,
    dls_eval,
    dof_lattice,
    facet_jump_psi,
    facet_triangles,
    mapping_eval,
    max_displacement,
    normal_deviation,
    plane_case,
    points_of_bary,
    project_average,
    psi_h,
    smallest_root_bisection,
    solve_points,
    torus_case,
    torus_mesh,
)


class QuadraticLevelSet:
    """phi(x) = x0^2 - 0.25; interpolated exactly for k >= 2."""

    def phi(self, x):
        x = np.atleast_2d(x)
        return x[:, 0] ** 2 - 0.25

    def grad_phi(self, x):
        x = np.atleast_2d(x)
        g = np.zeros_like(x)
        g[:, 0] = 2 * x[:, 0]
        return g


class TestRootSolve:
    def test_matches_bracketing_oracle_on_exact_quadratic(self, rng):
        """d_h at element nodes agrees with a brentq solve of the same equation."""
        q = QuadraticLevelSet()
        mesh = ActiveMesh.build(MeshParams(6), q, 2)
        dls = interpolate(q, mesh)
        delta = DELTA_FRACTION * mesh.h
        build_theta(dls)  # every node is solvable
        for elem in rng.integers(0, mesh.nelems, size=12):
            x = mesh.dof_points[mesh.elem_dofs[elem]]
            lam = bary_of_points(mesh, np.full(len(x), elem), x)
            phihat = np.einsum("pm,m->p", lam, mesh.vertex_phi[elem])
            G = q.grad_phi(x)  # dls is exact, so grad(phi_h) = grad(phi)
            d, _ = solve_points(dls, np.full(len(x), elem), x)
            for p in range(len(x)):
                g = lambda t: q.phi(x[p] + t * G[p])[0] - phihat[p]
                if abs(g(0.0)) <= 1e-12 * max(1.0, abs(phihat[p])):
                    oracle = 0.0  # already on target within the solve tolerance
                else:
                    oracle = smallest_root_bisection(g, delta)
                assert d[p] == pytest.approx(oracle, abs=1e-10)

    def test_residual_invariant_on_the_torus(self, rng):
        """phi_h(x + d*G) equals the linear interpolant value at x."""
        ls, mesh, dls, _ = torus_case(16, 2)
        elems = rng.integers(0, mesh.nelems, size=300)
        lam = rng.dirichlet(np.ones(4), size=300)
        x = points_of_bary(mesh, elems, lam)
        y = psi_h(dls, elems, x)
        d = np.linalg.norm(y - x, axis=-1)
        assert np.all(d <= DELTA_FRACTION * mesh.h * (1 + 1e-12))
        phihat = np.einsum("pm,pm->p", lam, mesh.vertex_phi[elems])
        lam_y = bary_of_points(mesh, elems, y)
        resid = dls_eval(dls, elems, lam_y) - phihat
        tol = 1e-11 * np.maximum(1.0, np.abs(phihat))
        assert np.all(np.abs(resid) <= tol)

    def test_vertex_nodes_do_not_move(self):
        """At mesh vertices the two interpolants agree, so d = 0 exactly."""
        _, mesh, _, mapping = torus_case(16, 2)
        on_lattice = np.all(dof_lattice(mesh) % mesh.k == 0, axis=1)
        assert on_lattice.any()
        disp = np.linalg.norm(mapping.displacement[on_lattice], axis=-1)
        assert disp.max() <= 1e-13 * mesh.h

    def test_search_interval_is_enforced(self, monkeypatch):
        """A tiny search radius leaves the roots out of reach."""
        ls, mesh = torus_mesh(12, 2)
        dls = interpolate(ls, mesh)
        build_theta(dls)
        monkeypatch.setattr(mapping_module, "DELTA_FRACTION", 1e-12)
        with pytest.raises(MappingError, match="too coarse"):
            build_theta(dls)

    def test_too_coarse_mesh_fails_loudly(self):
        ls, mesh = torus_mesh(8, 2)
        dls = interpolate(ls, mesh)
        with pytest.raises(MappingError, match="mesh too coarse"):
            build_theta(dls)


class TestStreamedBuild:
    def test_chunked_build_matches_the_per_point_oracle(self, monkeypatch):
        """Theta built in ragged chunks of 64 elements is the patch average of psi_h at every element node."""
        ls, mesh = torus_mesh(16, 3)
        dls = interpolate(ls, mesh)
        NB = mesh.nb
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", 16 * NB * (64 * NB + NB - 1))  # 16 NB^2 doubles per element
        disp = build_theta(dls).displacement
        E = mesh.nelems
        x = mesh.dof_points[mesh.elem_dofs].reshape(E * NB, 3)
        images = psi_h(dls, np.repeat(np.arange(E), NB), x).reshape(E, NB, 3)
        oracle = project_average(mesh, images) - mesh.dof_points
        assert np.abs(disp - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_build_memory_does_not_grow_with_the_mesh(self):
        """At torus k=3 n=16 the build allocates at most 8 MiB beyond what was live before it (2.7 at 4 NB^2 values per element, 9.3 at NB^2)."""
        ls, mesh = torus_mesh(16, 3)
        dls = interpolate(ls, mesh)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_theta(dls)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestIdentityCases:
    def test_linear_degree_skips_the_search(self):
        _, mesh = torus_mesh(8, 1)
        mapping = build_theta(interpolate(Torus(), mesh))
        assert max_displacement(mapping) == 0.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_affine_level_set_gives_identity(self, k):
        plane = Plane((0.3, -0.2, 0.9), 0.17)
        mesh, dls, mapping = plane_case(plane, 6, k)
        assert max_displacement(mapping) <= 1e-13
        assert facet_jump_psi(dls) <= 1e-12

    def test_identity_mapping_evaluates_to_the_input(self, rng):
        _, mesh = torus_mesh(6, 2)
        mapping = IsoMapping(mesh, np.zeros((mesh.ndofs, 3)))
        elems = rng.integers(0, mesh.nelems, size=40)
        lam = rng.dirichlet(np.ones(4), size=40)
        y, J = mapping_eval(mapping, elems, lam)
        np.testing.assert_allclose(y, points_of_bary(mesh, elems, lam), atol=1e-13)
        np.testing.assert_allclose(J, np.tile(np.eye(3), (40, 1, 1)), atol=1e-12)

    def test_plane_normals_are_exact(self, rng):
        plane = Plane((0.0, 0.0, 1.0), 0.31)
        mesh, dls, mapping = plane_case(plane, 6, 2)
        ez = np.tile([0.0, 0.0, 1.0], (mesh.nelems, 1))
        np.testing.assert_allclose(mapping.n_lin, ez, atol=1e-13)
        elems = rng.integers(0, mesh.nelems, size=20)
        lam = rng.dirichlet(np.ones(4), size=20)
        nh = mapping.lift(elems, lam[:, None]).nh[:, 0]
        np.testing.assert_allclose(nh, ez[:20], atol=1e-12)


class TestMapping:
    def test_patch_average_matches_direct_mean(self, rng):
        _, mesh = torus_mesh(5, 2)
        values = rng.standard_normal((mesh.nelems, mesh.nb, 3))
        avg = project_average(mesh, values)
        flat = mesh.elem_dofs.ravel()
        for dof in rng.integers(0, mesh.ndofs, size=30):
            rows = values.reshape(-1, 3)[flat == dof]
            np.testing.assert_allclose(avg[dof], rows.mean(axis=0), atol=1e-14)

    def test_deformation_is_continuous_across_facets(self, rng):
        _, mesh, dls, mapping = torus_case(16, 2)
        fs = mesh.facets
        pick = rng.integers(0, len(fs), size=200)
        lam3 = rng.dirichlet(np.ones(3), size=200)
        pts = np.einsum("fq,fqi->fi", lam3, facet_triangles(fs, pick))
        out = []
        for s in range(2):
            elems = fs.elems[pick, s]
            bary = bary_of_points(mesh, elems, pts)
            y, _ = mapping_eval(mapping, elems, bary)
            out.append(y)
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_jacobian_matches_finite_differences(self, rng):
        _, mesh, _, mapping = torus_case(16, 2)
        elems = rng.integers(0, mesh.nelems, size=10)
        lam = np.full((10, 4), 0.25)
        x = points_of_bary(mesh, elems, lam)
        _, J = mapping_eval(mapping, elems, lam)
        step = 1e-6
        for d in range(3):
            xp = x.copy()
            xp[:, d] += step
            xm = x.copy()
            xm[:, d] -= step
            yp, _ = mapping_eval(mapping, elems, bary_of_points(mesh, elems, xp))
            ym, _ = mapping_eval(mapping, elems, bary_of_points(mesh, elems, xm))
            np.testing.assert_allclose(J[:, :, d], (yp - ym) / (2 * step), atol=1e-5)

    def test_jacobian_stays_near_the_identity(self, rng):
        _, mesh, _, mapping = torus_case(16, 2)
        elems = rng.integers(0, mesh.nelems, size=200)
        lam = rng.dirichlet(np.ones(4), size=200)
        _, J = mapping_eval(mapping, elems, lam)
        det = np.linalg.det(J)
        assert np.all(det > 0.5)
        assert np.abs(det - 1.0).max() < 0.5

    def test_displacement_shrinks_quadratically(self):
        disp = [max_displacement(torus_case(n, 2)[3]) for n in (16, 32)]
        assert np.log2(disp[0] / disp[1]) >= 1.7

    def test_facet_jump_decays_superconvergently(self):
        jumps = [facet_jump_psi(torus_case(n, 2)[2]) for n in (16, 32)]
        assert np.log2(jumps[0] / jumps[1]) >= 2.6

    def test_facet_jump_streams_its_facets(self):
        """Chunks of facets give the jump of one solve over every facet's points, to the bit, in memory that does not grow with the mesh.

        Forming every facet's points at once, the call peaked at 54.9 MiB
        here (4,268 facets) and 213.5 MiB at torus k=2 n=32; in chunks it
        peaks at 2.6 MiB at both.
        """
        _, mesh, dls, _ = torus_case(16, 2)
        fs = mesh.facets
        lam, _ = triangle_rule(4)
        pts = np.einsum("qm,fmi->fqi", lam, facet_triangles(fs)).reshape(-1, 3)
        lo, hi = (psi_h(dls, np.repeat(e, len(lam)), pts) for e in fs.elems.T)
        whole = np.linalg.norm(lo - hi, axis=-1).max()
        assert len(mesh_module.element_chunks(len(fs), 16 * len(lam) * mesh.nb)) > 1
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            jump = facet_jump_psi(dls)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert jump == whole
        assert peak <= 4 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_normal_deviation_decays_quadratically(self):
        devs = [
            normal_deviation(mapping, ls)
            for ls, mesh, dls, mapping in (torus_case(16, 2), torus_case(32, 2))
        ]
        assert np.log2(devs[0] / devs[1]) >= 1.7

    def test_displacement_shape_validated(self):
        _, mesh = torus_mesh(5, 2)
        with pytest.raises(ValueError, match="ndofs"):
            IsoMapping(mesh, np.zeros((3, mesh.ndofs)))


class TestLift:
    def test_lift_matches_the_explicit_inverse(self, rng):
        """Normal, weight factor and gradients agree with inv(DTheta) written out."""
        _, mesh = torus_mesh(8, 2)
        mapping = IsoMapping(mesh, 0.05 * mesh.h * rng.standard_normal((mesh.ndofs, 3)))
        elems = rng.integers(0, mesh.nelems, size=200)
        lam = rng.dirichlet(np.ones(4), size=200)
        lift = Lift(*(a[:, 0] for a in mapping.lift(elems, lam[:, None])))  # one point per element

        y, J = mapping_eval(mapping, elems, lam)
        vals, dlam = backends.eval_basis(mesh.k, lam)
        gref = np.einsum("pbm,pmi->pbi", dlam, mesh.bary_grad(elems))
        invJT = np.linalg.inv(J).transpose(0, 2, 1)
        N = np.einsum("pij,pj->pi", invJT, mapping.n_lin[elems])
        nn = np.linalg.norm(N, axis=-1)
        assert np.abs(J - np.eye(3)).max() > 1e-3  # the test map is not the identity
        np.testing.assert_allclose(lift.y, y, atol=1e-14)
        np.testing.assert_allclose(lift.vals, vals, atol=1e-14)
        np.testing.assert_allclose(lift.det, np.linalg.det(J), rtol=1e-13)
        np.testing.assert_allclose(lift.invJ, np.linalg.inv(J), rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(lift.nh, N / nn[:, None], atol=1e-13)
        np.testing.assert_allclose(lift.det * lift.nn, np.linalg.det(J) * nn, rtol=1e-13)
        np.testing.assert_allclose(
            lift.grads, np.einsum("pij,pbj->pbi", invJT, gref), rtol=1e-12, atol=1e-12 / mesh.h
        )

    def test_shared_points_lift_like_per_point_points(self, rng):
        """Points shared by E elements, given per element, give (E, q, ...) arrays equal bit for bit to a per-point lift."""
        _, mesh = torus_mesh(8, 2)
        mapping = IsoMapping(mesh, 0.05 * mesh.h * rng.standard_normal((mesh.ndofs, 3)))
        E, q, NB = 30, 7, mesh.nb
        elems = rng.integers(0, mesh.nelems, size=E)
        lam = rng.dirichlet(np.ones(4), size=q)
        per_elem = mapping.lift(elems, np.broadcast_to(lam, (E, q, 4)))
        per_point = mapping.lift(np.repeat(elems, q), np.tile(lam, (E, 1))[:, None])
        shapes = [(E, q, NB), (E, q, NB, 3), (E, q, 3, 3), (E, q, 3), (E, q), (E, q, 3), (E, q)]
        assert [a.shape for a in per_elem] == shapes
        for a, c in zip(per_elem, per_point):
            np.testing.assert_array_equal(a, c.reshape(a.shape))
        # points given by their reference gradients alone, as the volume rule gives them
        from_gref = mapping.lift(elems, gref=per_elem.gref)
        assert from_gref.vals is None and from_gref.y is None
        for name in ("gref", "invJ", "det", "nh", "nn"):
            np.testing.assert_array_equal(getattr(from_gref, name), getattr(per_elem, name))

    def test_inverted_elements_are_rejected_by_both_rules(self):
        """Theta(x) = -x has det DTheta = -1 everywhere."""
        ls, mesh = torus_mesh(6, 2)
        dls = interpolate(ls, mesh)
        mapping = IsoMapping(mesh, -2.0 * mesh.dof_points)
        with pytest.raises(MappingInvertibilityError, match="not invertible"):
            next(SurfaceData.build(mapping, 2).chunks())
        with pytest.raises(MappingInvertibilityError, match="not invertible"):
            next(VolumeData.build(mapping).chunks())
