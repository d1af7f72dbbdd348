"""Lagrange basis on the reference tetrahedron and nodal level-set interpolation."""

import numpy as np
import pytest

from tracefem import backends
from tracefem.levelset import Plane, Torus
from tracefem.mapping import IsoMapping
from tracefem.mesh import MAX_DEGREE, ActiveMesh, MeshParams
from tracefem.reference import DiscreteLevelSet, interpolate

from helpers import dls_eval, points_of_bary, torus_mesh


def random_bary(rng, count, spread=0.0):
    """Barycentric points; spread > 0 pushes some outside the simplex."""
    lam = rng.dirichlet(np.ones(4), size=count)
    if spread:
        lam = lam + spread * rng.standard_normal(lam.shape)
        lam[:, 3] = 1.0 - lam[:, :3].sum(axis=1)
    return lam


def nodes(k):
    """The degree-k element's nodes, barycentric (NB, 4)."""
    return backends.multi_indices(k) / k


class TestBasis:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_kronecker_at_nodes(self, k):
        vals = backends.eval_basis(k, nodes(k))[0]
        np.testing.assert_allclose(vals, np.eye(len(nodes(k))), atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_partition_of_unity_inside_and_outside(self, k, rng):
        lam = random_bary(rng, 200, spread=0.3)  # includes exterior points
        vals, dlam = backends.eval_basis(k, lam)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)
        # the gradient sum is normal to the constraint plane: constant across
        # components, so the physical gradient of the constant 1 vanishes
        s = dlam.sum(axis=1)
        np.testing.assert_allclose(s - s.mean(axis=1, keepdims=True), 0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_reproduces_degree_k_monomials(self, k, rng):
        """Nodal interpolation of lam0^a*lam1^b*... is exact for total degree <= k."""
        lam = random_bary(rng, 100)
        vals = backends.eval_basis(k, lam)[0]
        mi = backends.multi_indices(k)
        for powers in mi[:: max(1, len(mi) // 8)]:
            f = lambda L: np.prod(L ** powers, axis=-1)
            nodal = f(nodes(k))
            np.testing.assert_allclose(vals @ nodal, f(lam), atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        lam = random_bary(rng, 20)
        _, dlam = backends.eval_basis(3, lam)
        step = 1e-6
        for m in range(4):
            lp = lam.copy()
            lp[:, m] += step
            lm = lam.copy()
            lm[:, m] -= step
            fd = (backends.eval_basis(3, lp)[0] - backends.eval_basis(3, lm)[0]) / (2 * step)
            np.testing.assert_allclose(dlam[:, :, m], fd, atol=1e-8)

    def test_single_point_is_a_batch_of_one(self):
        v, d = backends.eval_basis(2, np.array([[0.25, 0.25, 0.25, 0.25]]))
        nb = len(backends.multi_indices(2))
        assert v.shape == (1, nb) and d.shape == (1, nb, 4)

    def test_degree_bounds(self):
        """The mesh is the one place that checks the degree."""
        for k in (0, MAX_DEGREE + 1):
            with pytest.raises(ValueError, match="degree"):
                ActiveMesh.build(MeshParams(4), Torus(), k)

    def test_node_multi_indices_sum_to_k(self):
        for k in (1, 2, 3, 4, 5):
            assert np.all(backends.multi_indices(k).sum(axis=1) == k)
            assert torus_mesh(4, k)[1].nb == (k + 1) * (k + 2) * (k + 3) // 6

    def test_multi_indices_are_one_shared_read_only_array(self):
        mi = backends.multi_indices(3)
        assert backends.multi_indices(3) is mi and not mi.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mi[0, 0] = 0


def factors_oracle(k, lam, glam=None):
    """Lists c, dc of the four (P, NB) 1D factors of every basis function at lam (P, 4) and their derivatives (along glam if given), degree by degree.

    They are the factors backends.eval_basis and backends.solve_dh multiply.
    """
    mi = backends.multi_indices(k)
    L, dL = [np.ones_like(lam)], [np.zeros_like(lam)]
    for a in range(1, k + 1):
        fac = (k * lam - (a - 1)) / a
        dL.append(dL[-1] * fac + L[-1] * (k / a))
        L.append(L[-1] * fac)
    if glam is not None:
        dL = [t * glam for t in dL]
    # (NB, P) rows transposed: the layout the kernels reduce over, which decides an einsum's rounding
    c = [np.stack([L[a][:, m] for a in mi[:, m]]).T for m in range(4)]
    dc = [np.stack([dL[a][:, m] for a in mi[:, m]]).T for m in range(4)]
    return c, dc


class TestPythonKernels:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_basis_is_the_product_of_its_factors_to_the_bit(self, k, rng):
        """Values ((c0 c1) c2) c3 and each barycentric derivative the same product with one factor differentiated, in that order."""
        lam = random_bary(rng, 300, spread=0.3)
        c, dc = factors_oracle(k, lam)
        vals, dlam = backends.eval_basis(k, lam)
        np.testing.assert_array_equal(vals, c[0] * c[1] * c[2] * c[3])
        for m in range(4):
            f = [dc[j] if j == m else c[j] for j in range(4)]
            np.testing.assert_array_equal(dlam[:, :, m], f[0] * f[1] * f[2] * f[3])

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_line_derivative_is_the_product_rule_to_the_bit(self, k, rng):
        """phi_h and its line derivative from one workspace, on ever fewer points as the Newton steps use it, match the product rule written out."""
        nb = len(backends.multi_indices(k))
        work = backends._workspace(k, 200)
        for P in (200, 57, 1):
            lam, glam = random_bary(rng, P, spread=0.3), rng.standard_normal((P, 4))
            coeffs = rng.standard_normal((P, nb))
            c, dc = factors_oracle(k, lam, glam)
            vals = c[0] * c[1] * c[2] * c[3]
            dvals = (dc[0] * c[1] + c[0] * dc[1]) * (c[2] * c[3]) + (c[0] * c[1]) * (dc[2] * c[3] + c[2] * dc[3])
            g, gp = backends._eval_phi_dphi(k, coeffs, lam, glam, work)
            np.testing.assert_array_equal(g, np.einsum("pb,pb->p", vals, coeffs))
            np.testing.assert_array_equal(gp, np.einsum("pb,pb->p", dvals, coeffs))

    def test_accumulate_sym_is_one_einsum_to_the_bit(self, rng):
        """Runs of elements give the local matrices of one einsum over all of them, for any count of elements, points and widths."""
        for E in range(1, 10):
            for Q, NB, M in ((1, 4, 3), (4, 10, 1), (9, 20, 3), (64, 20, 1)):
                v = rng.standard_normal((E, Q, NB, M))
                w = rng.uniform(0.5, 2.0, size=(E, Q))
                expected = np.einsum("eqim,eqjm,eq->eij", v, v, w, optimize=True)
                np.testing.assert_array_equal(backends.accumulate_sym(v, w), expected)

    def test_multi_indices_enumerate_the_simplex_lattice(self):
        for k in (1, 2, 3, 4, 5):
            mi = backends.multi_indices(k)
            assert mi.shape == ((k + 1) * (k + 2) * (k + 3) // 6, 4)
            assert np.all(mi.sum(axis=1) == k)
            assert len(np.unique(mi, axis=0)) == len(mi)

    def test_accumulate_sym_is_a_weighted_outer_product(self, rng):
        v = rng.standard_normal((3, 5, 4, 1))
        w = rng.uniform(0.5, 2.0, size=(3, 5))
        out = backends.accumulate_sym(v, w)
        expected = np.einsum("eqbd,eqcd,eq->ebc", v, v, w)
        np.testing.assert_allclose(out, expected, atol=1e-13)
        np.testing.assert_allclose(out, out.transpose(0, 2, 1), atol=0)


class TestPhysicalGradients:
    def test_chain_rule_against_direct_affine(self, rng):
        """Physical gradient of a nodal field matches an analytic affine field."""
        _, mesh = torus_mesh(4, 2)
        coef = np.array([1.3, -0.7, 0.4])
        field = mesh.dof_points @ coef  # global affine function
        dls = DiscreteLevelSet(mesh, field)
        elems = rng.integers(0, mesh.nelems, size=50)
        lam = rng.dirichlet(np.ones(4), size=50)
        val, g = dls_eval(dls, elems, lam, grad=True)
        np.testing.assert_allclose(g, np.tile(coef, (50, 1)), atol=1e-11)
        x = points_of_bary(mesh, elems, lam)
        np.testing.assert_allclose(val, x @ coef, atol=1e-12)

    def test_shape_contract(self, rng):
        """A lift's gref is dlam @ bary_grad, (E, q, NB, 3)."""
        _, mesh = torus_mesh(4, 2)
        lam = rng.dirichlet(np.ones(4), size=10)
        elems = np.zeros(10, dtype=int)
        gref = IsoMapping(mesh, np.zeros((mesh.ndofs, 3))).lift(elems, lam[:, None]).gref
        assert gref.shape == (10, 1, mesh.nb, 3)
        _, dlam = backends.eval_basis(mesh.k, lam)
        np.testing.assert_array_equal(gref[:, 0], dlam @ mesh.bary_grad(elems))

    def test_basis_gradients_sum_to_zero(self, rng):
        """The constant field has zero gradient after the chain rule."""
        _, mesh = torus_mesh(4, 3)
        lam = rng.dirichlet(np.ones(4), size=(mesh.nelems, 1))
        g = IsoMapping(mesh, np.zeros((mesh.ndofs, 3))).lift(np.arange(mesh.nelems), lam).gref
        np.testing.assert_allclose(g.sum(axis=2), 0.0, atol=1e-11)


class QuadraticLevelSet:
    """phi(x) = x0^2 + 0.5*x1 - 0.4, a polynomial of total degree 2."""

    def phi(self, x):
        x = np.atleast_2d(x)
        return x[:, 0] ** 2 + 0.5 * x[:, 1] - 0.4

    def grad_phi(self, x):
        x = np.atleast_2d(x)
        g = np.zeros_like(x)
        g[:, 0] = 2 * x[:, 0]
        g[:, 1] = 0.5
        return g


class TestInterpolation:
    def test_values_are_nodal_samples(self):
        ls, mesh = torus_mesh(4, 2)
        dls = interpolate(ls, mesh)
        np.testing.assert_array_equal(dls.values, ls.phi(mesh.dof_points))

    def test_affine_level_set_is_reproduced_everywhere(self, rng):
        plane = Plane((0.3, -0.2, 0.9), 0.17)
        for k in (1, 2, 3):
            mesh = ActiveMesh.build(MeshParams(6), plane, k)
            dls = interpolate(plane, mesh)
            elems = rng.integers(0, mesh.nelems, size=80)
            lam = rng.dirichlet(np.ones(4), size=80)
            x = points_of_bary(mesh, elems, lam)
            np.testing.assert_allclose(dls_eval(dls, elems, lam), plane.phi(x), atol=1e-13)

    def test_quadratic_level_set_exact_for_k_at_least_two(self, rng):
        q = QuadraticLevelSet()
        for k in (2, 3):
            mesh = ActiveMesh.build(MeshParams(6), q, k)
            dls = interpolate(q, mesh)
            elems = rng.integers(0, mesh.nelems, size=80)
            lam = rng.dirichlet(np.ones(4), size=80)
            x = points_of_bary(mesh, elems, lam)
            val, g = dls_eval(dls, elems, lam, grad=True)
            np.testing.assert_allclose(val, q.phi(x), atol=1e-12)
            np.testing.assert_allclose(g, q.grad_phi(x), atol=1e-11)

    def test_torus_interpolation_error_decays_at_cubic_rate(self, rng):
        """sup |phi_h - phi| on active elements shrinks ~ h^(k+1) for k = 2."""
        errs = []
        for n in (8, 16, 32):
            ls, mesh = torus_mesh(n, 2)
            dls = interpolate(ls, mesh)
            elems = np.repeat(np.arange(mesh.nelems), 4)
            lam = rng.dirichlet(np.ones(4), size=len(elems))
            x = points_of_bary(mesh, elems, lam)
            errs.append(np.abs(dls_eval(dls, elems, lam) - ls.phi(x)).max())
        eocs = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(eocs >= 2.7)

    def test_validation(self):
        _, mesh = torus_mesh(4, 1)
        with pytest.raises(ValueError, match="dof count"):
            DiscreteLevelSet(mesh, np.ones(mesh.ndofs + 1))
        bad = np.ones(mesh.ndofs)
        bad[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            DiscreteLevelSet(mesh, bad)
