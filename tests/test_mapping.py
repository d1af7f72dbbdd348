"""Deformation root solve, patch averaging, and the assembled mapping."""

import numpy as np
import pytest

from tracefem.assembly import SurfaceData, VolumeData
from tracefem.levelset import Plane, Torus
from tracefem.mapping import (
    DELTA_FRACTION,
    IsoMapping,
    MappingError,
    MappingInvertibilityError,
    SearchContext,
    build_theta,
    facet_jump_psi,
    normal_deviation,
    project_average,
    psi_h,
)
from tracefem.mesh import ActiveMesh, MeshParams
from tracefem.reference import interpolate

from helpers import plane_case, smallest_root_bisection, torus_case, torus_mesh


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
        build_theta(mesh, dls)  # every node is solvable
        for elem in rng.integers(0, mesh.nelems, size=12):
            ctx = SearchContext(mesh, dls, elem)
            x = mesh.dof_points[mesh.elem_dofs[elem]]
            lam = mesh.bary_of_points(np.full(len(x), elem), x)
            phihat = np.einsum("pm,m->p", lam, mesh.vertex_phi[elem])
            G = q.grad_phi(x)  # dls is exact, so grad(phi_h) = grad(phi)
            d = ctx.solve_dh(x)
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
        x = mesh.points_of_bary(elems, lam)
        y = psi_h(mesh, dls, elems, x)
        d = np.linalg.norm(y - x, axis=-1)
        assert np.all(d <= DELTA_FRACTION * mesh.h * (1 + 1e-12))
        phihat = np.einsum("pm,pm->p", lam, mesh.vertex_phi[elems])
        lam_y = mesh.bary_of_points(elems, y)
        resid = dls.eval(elems, lam_y) - phihat
        tol = 1e-11 * np.maximum(1.0, np.abs(phihat))
        assert np.all(np.abs(resid) <= tol)

    def test_vertex_nodes_do_not_move(self):
        """At mesh vertices the two interpolants agree, so d = 0 exactly."""
        _, mesh, _, mapping = torus_case(16, 2)
        on_lattice = np.all(mesh.dof_lattice % mesh.k == 0, axis=1)
        assert on_lattice.any()
        disp = np.linalg.norm(mapping.displacement[on_lattice], axis=-1)
        assert disp.max() <= 1e-13 * mesh.h

    def test_search_interval_is_enforced(self):
        """A tiny search radius leaves the roots out of reach."""
        ls, mesh = torus_mesh(12, 2)
        dls = interpolate(ls, mesh)
        with pytest.raises(MappingError, match="too coarse"):
            build_theta(mesh, dls, delta=1e-12)

    def test_too_coarse_mesh_fails_loudly(self):
        ls, mesh = torus_mesh(8, 2)
        dls = interpolate(ls, mesh)
        with pytest.raises(MappingError, match="mesh too coarse"):
            build_theta(mesh, dls)


class TestIdentityCases:
    def test_linear_degree_skips_the_search(self):
        _, mesh = torus_mesh(8, 1)
        mapping = build_theta(mesh, interpolate(Torus(), mesh))
        assert mapping.max_displacement() == 0.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_affine_level_set_gives_identity(self, k):
        plane = Plane((0.3, -0.2, 0.9), 0.17)
        mesh, dls, mapping = plane_case(plane, 6, k)
        assert mapping.max_displacement() <= 1e-13
        assert facet_jump_psi(mesh, dls) <= 1e-12

    def test_identity_mapping_evaluates_to_the_input(self, rng):
        _, mesh = torus_mesh(6, 2)
        mapping = IsoMapping(mesh, np.zeros((mesh.ndofs, 3)))
        elems = rng.integers(0, mesh.nelems, size=40)
        lam = rng.dirichlet(np.ones(4), size=40)
        y, J = mapping.eval(elems, lam)
        np.testing.assert_allclose(y, mesh.points_of_bary(elems, lam), atol=1e-13)
        np.testing.assert_allclose(J, np.tile(np.eye(3), (40, 1, 1)), atol=1e-12)

    def test_plane_normals_are_exact(self, rng):
        plane = Plane((0.0, 0.0, 1.0), 0.31)
        mesh, dls, mapping = plane_case(plane, 6, 2)
        ez = np.tile([0.0, 0.0, 1.0], (mesh.nelems, 1))
        np.testing.assert_allclose(mapping.n_lin, ez, atol=1e-13)
        elems = rng.integers(0, mesh.nelems, size=20)
        lam = rng.dirichlet(np.ones(4), size=20)
        nh = mapping.normals(elems, lam=lam)
        np.testing.assert_allclose(nh, ez[:20], atol=1e-12)


class TestMapping:
    def test_patch_average_matches_direct_mean(self, rng):
        _, mesh = torus_mesh(5, 2)
        values = rng.standard_normal((mesh.nelems, mesh.ref.ndofs, 3))
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
        pts = np.einsum("fq,fqi->fi", lam3, fs.tri_points[pick])
        out = []
        for s in range(2):
            elems = fs.elems[pick, s]
            bary = mesh.bary_of_points(elems, pts)
            y, _ = mapping.eval(elems, bary)
            out.append(y)
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_jacobian_matches_finite_differences(self, rng):
        _, mesh, _, mapping = torus_case(16, 2)
        elems = rng.integers(0, mesh.nelems, size=10)
        lam = np.full((10, 4), 0.25)
        x = mesh.points_of_bary(elems, lam)
        _, J = mapping.eval(elems, lam)
        step = 1e-6
        for d in range(3):
            xp = x.copy()
            xp[:, d] += step
            xm = x.copy()
            xm[:, d] -= step
            yp, _ = mapping.eval(elems, mesh.bary_of_points(elems, xp))
            ym, _ = mapping.eval(elems, mesh.bary_of_points(elems, xm))
            np.testing.assert_allclose(J[:, :, d], (yp - ym) / (2 * step), atol=1e-5)

    def test_jacobian_stays_near_the_identity(self, rng):
        _, mesh, _, mapping = torus_case(16, 2)
        elems = rng.integers(0, mesh.nelems, size=200)
        lam = rng.dirichlet(np.ones(4), size=200)
        _, J = mapping.eval(elems, lam)
        det = np.linalg.det(J)
        assert np.all(det > 0.5)
        assert np.abs(det - 1.0).max() < 0.5

    def test_displacement_shrinks_quadratically(self):
        disp = [torus_case(n, 2)[3].max_displacement() for n in (16, 32)]
        assert np.log2(disp[0] / disp[1]) >= 1.7

    def test_facet_jump_decays_superconvergently(self):
        jumps = [facet_jump_psi(*torus_case(n, 2)[1:3]) for n in (16, 32)]
        assert np.log2(jumps[0] / jumps[1]) >= 2.6

    def test_normal_deviation_decays_quadratically(self):
        devs = [
            normal_deviation(mesh, dls, mapping, ls)
            for ls, mesh, dls, mapping in (torus_case(16, 2), torus_case(32, 2))
        ]
        assert np.log2(devs[0] / devs[1]) >= 1.7

    def test_wrong_mesh_pairing_rejected(self):
        ls, mesh = torus_mesh(6, 2)
        _, other = torus_mesh(5, 2)
        with pytest.raises(ValueError, match="different mesh"):
            build_theta(other, interpolate(ls, mesh))

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
        lift = mapping.lift(elems, lam)

        y, J = mapping.eval(elems, lam)
        vals, dlam = mesh.ref.eval(lam, grad=True)
        gref = np.einsum("pbm,pmi->pbi", dlam, mesh.bary_grad[elems])
        invJT = np.linalg.inv(J).transpose(0, 2, 1)
        N = np.einsum("pij,pj->pi", invJT, mapping.n_lin[elems])
        nn = np.linalg.norm(N, axis=-1)
        assert np.abs(J - np.eye(3)).max() > 1e-3  # the test map is not the identity
        np.testing.assert_allclose(lift.y, y, atol=1e-14)
        np.testing.assert_allclose(lift.vals, vals, atol=1e-14)
        np.testing.assert_allclose(lift.det, np.linalg.det(J), rtol=1e-13)
        np.testing.assert_allclose(lift.nh, N / nn[:, None], atol=1e-13)
        np.testing.assert_allclose(lift.det * lift.nn, np.linalg.det(J) * nn, rtol=1e-13)
        np.testing.assert_allclose(
            lift.grads, np.einsum("pij,pbj->pbi", invJT, gref), rtol=1e-12, atol=1e-12 / mesh.h
        )
        np.testing.assert_allclose(mapping.normals(elems, lam), lift.nh, atol=0.0)

    def test_inverted_elements_are_rejected_by_both_rules(self):
        """Theta(x) = -x has det DTheta = -1 everywhere."""
        ls, mesh = torus_mesh(6, 2)
        dls = interpolate(ls, mesh)
        mapping = IsoMapping(mesh, -2.0 * mesh.dof_points)
        with pytest.raises(MappingInvertibilityError, match="not invertible"):
            SurfaceData.build(mesh, dls, mapping, 2)
        with pytest.raises(MappingInvertibilityError, match="not invertible"):
            VolumeData.build(mesh, mapping, 4)
