"""Cut-element geometry against a polygon-clipping oracle; quadrature exactness."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from tracefem import cutquad
from tracefem.assembly import SurfaceData, VolumeData
from tracefem.cutquad import (
    MAX_RULE_DEGREE,
    extract_cuts,
    tet_rule,
    triangle_rule,
)
from tracefem.levelset import Plane, Sphere, Torus, shifted_plane
from tracefem.mapping import IsoMapping
from tracefem.mesh import ActiveMesh, MeshParams

from helpers import (
    clip_polygon_oracle,
    cut_corners_oracle,
    lin_gradient,
    plane_box_section_area,
    polygon_area,
    tet_monomial_integral,
    torus_mesh,
    tri_monomial_integral,
)

UNIT_TET = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


def solved_gradient(vphi, verts):
    """Gradient of the linear interpolant on each tet (B, 4) x (B, 4, 3) by a LAPACK solve of the edge system."""
    return np.linalg.solve(verts[:, 1:] - verts[:, :1], (vphi[:, 1:] - vphi[:, :1])[:, :, None])[:, :, 0]


def affine_gradient(vphi, verts):
    """Least-squares affine fit through the four vertex samples."""
    A = np.hstack([verts, np.ones((4, 1))])
    sol, *_ = np.linalg.lstsq(A, vphi, rcond=None)
    return sol[:3]


class TestSimplexRules:
    @pytest.mark.parametrize("degree", range(0, MAX_RULE_DEGREE + 1))
    def test_triangle_rule_integrates_monomials_exactly(self, degree):
        lam, w = triangle_rule(degree)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)
        for a, b, c in itertools.product(range(degree + 1), repeat=3):
            if a + b + c != degree:
                continue
            got = np.sum(w * lam[:, 0] ** a * lam[:, 1] ** b * lam[:, 2] ** c)
            exact = (
                2.0
                * math.factorial(a)
                * math.factorial(b)
                * math.factorial(c)
                / math.factorial(a + b + c + 2)
            )
            assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("degree", range(0, MAX_RULE_DEGREE + 1))
    def test_tet_rule_integrates_monomials_exactly(self, degree):
        lam, w = tet_rule(degree)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)
        for powers in itertools.product(range(degree + 1), repeat=4):
            if sum(powers) != degree:
                continue
            got = np.sum(w * np.prod(lam**powers, axis=1))
            exact = 6.0 * np.prod([math.factorial(p) for p in powers]) / math.factorial(
                degree + 3
            )
            assert got == pytest.approx(exact, rel=1e-12)

    def test_factorial_oracles_agree_with_each_other(self):
        assert tri_monomial_integral(1, 0) == pytest.approx(1.0 / 6.0)
        assert tet_monomial_integral(1, 0, 0) == pytest.approx(1.0 / 24.0)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError, match="degree"):
            triangle_rule(MAX_RULE_DEGREE + 1)
        with pytest.raises(ValueError, match="degree"):
            tet_rule(MAX_RULE_DEGREE + 1)
        with pytest.raises(ValueError, match="degree"):
            triangle_rule(-1)

    def test_rules_are_cached(self):
        assert triangle_rule(4) is triangle_rule(4)
        assert tet_rule(4) is tet_rule(4)

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_tabulated_rules_are_scipys_bit_for_bit(self, alpha, n):
        """The 1-D rules on [0, 1] behind every simplex rule up to degree 10 are scipy's Gauss-Jacobi roots, mapped."""
        x, w = roots_legendre(n) if alpha == 0 else roots_jacobi(n, float(alpha), 0.0)
        nodes, weights = (np.array(v) for v in cutquad._GAUSS_JACOBI01[alpha, n])
        assert nodes.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert weights.tobytes() == (w / 2.0 ** (alpha + 1)).tobytes()


def cut(vphi, verts):
    """extract_cuts with its corners rebuilt: (tri_elem, tri_bary (T, 3, 4), tri_area)."""
    elem, edges, fracs, area = extract_cuts(vphi, verts)
    return elem, cutquad.corners(edges, fracs), area


class TestExtractCuts:
    def test_single_negative_vertex_gives_midpoint_triangle(self):
        vphi = np.array([[-1.0, 1.0, 1.0, 1.0]])
        elem, bary, area = cut(vphi, UNIT_TET[None])
        assert elem.tolist() == [0]
        assert bary.shape == (1, 3, 4)
        pts = np.einsum("tcm,mi->tci", bary, UNIT_TET)[0]
        expected = {(0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)}
        assert {tuple(np.round(p, 12)) for p in pts} == expected
        assert area[0] == pytest.approx(np.sqrt(3.0) / 8.0)

    def test_interface_lies_on_the_zero_level(self, rng):
        vphi = rng.standard_normal((200, 4))
        keep = (vphi.min(axis=1) < 0) & (vphi.max(axis=1) > 0)
        vphi = vphi[keep]
        verts = np.tile(UNIT_TET, (len(vphi), 1, 1)) + 0.1 * rng.standard_normal(
            (len(vphi), 4, 3)
        )
        elem, bary, area = cut(vphi, verts)
        np.testing.assert_allclose(abs(bary.sum(axis=2) - 1.0).max(), 0.0, atol=1e-13)
        phi_at = np.einsum("tcm,tm->tc", bary, vphi[elem])
        np.testing.assert_allclose(phi_at, 0.0, atol=1e-13)
        assert np.all(area > 0)

    def test_orientation_follows_the_gradient(self, rng):
        vphi = rng.standard_normal((100, 4))
        keep = (vphi.min(axis=1) < 0) & (vphi.max(axis=1) > 0)
        vphi = vphi[keep]
        verts = np.tile(UNIT_TET, (len(vphi), 1, 1)) + 0.1 * rng.standard_normal(
            (len(vphi), 4, 3)
        )
        elem, bary, _ = cut(vphi, verts)
        pts = np.einsum("tcm,tmi->tci", bary, verts[elem])
        nvec = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        for t, e in enumerate(elem):
            g = affine_gradient(vphi[e], verts[e])
            assert np.dot(nvec[t], g) > 0

    def test_lin_gradient_matches_one_solve_per_tet(self, rng):
        """The cofactor gradient agrees with a LAPACK solve of the edge system to rounding."""
        vphi = rng.standard_normal((200, 4))
        verts = UNIT_TET + 0.2 * rng.standard_normal((200, 4, 3))
        solved = solved_gradient(vphi, verts)
        g = lin_gradient(vphi, verts)
        np.testing.assert_allclose(g, solved, rtol=1e-12, atol=1e-12 * abs(solved).max())

    def test_surface_rule_triangles_are_those_a_solve_orients(self):
        """SurfaceData.build's triangles are byte-identical to those of the oracle oriented by a LAPACK solve per tet."""
        _, mesh = torus_mesh(16, 2)
        surf = SurfaceData.build(IsoMapping(mesh, np.zeros((mesh.ndofs, 3))))
        solved = cut_corners_oracle(mesh.vertex_phi, mesh.verts_phys(slice(None)), gradient=solved_gradient)
        got = (surf.cells.astype(np.intp), cutquad.corners(surf.tri_edges, surf.tri_fracs), surf.tri_area)
        for a, b in zip(got, solved):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_quad_case_yields_two_coplanar_triangles(self):
        vphi = np.array([[-1.0, -1.0, 1.0, 1.0]])
        elem, bary, area = cut(vphi, UNIT_TET[None])
        assert elem.tolist() == [0, 0]
        # all four distinct corners lie on one plane through the zero level
        points = np.einsum("tcm,mi->tci", bary, UNIT_TET)
        corners = np.unique(np.round(points.reshape(-1, 3), 12), axis=0)
        assert len(corners) == 4
        g = affine_gradient(vphi[0], UNIT_TET)
        span = corners[1:] - corners[0]
        np.testing.assert_allclose(span @ g, 0.0, atol=1e-12)

    def test_a_fraction_that_rounds_to_one_keeps_its_edge(self):
        """|phi_b / phi_a| < 2^-54 rounds t to 1.0, so a corner's coordinates show only o; its edge code still names m and o.

        One- and two-triangle cuts, rebuilt byte for byte as the (T, 3, 4) corners of the oracle.
        """
        tiny = 2.0**-60
        vphi = np.array([[-1.0, tiny, 1.0, 2.0], [-1.0, -3.0, tiny, 1.0]])
        verts = np.stack([UNIT_TET, UNIT_TET + 0.1])
        elem, edges, fracs, area = extract_cuts(vphi, verts)
        assert elem.tolist() == [0, 1, 1] and edges.dtype == np.uint8
        one = fracs == 1.0
        # the corners on edge 0-1 of the first element and on edges 0-2 and 1-2 of the second
        assert set(edges[one].tolist()) == {0 * 4 + 1, 0 * 4 + 2, 1 * 4 + 2}
        bary = cutquad.corners(edges, fracs)
        np.testing.assert_array_equal(np.count_nonzero(bary[one], axis=-1), 1)
        oracle = cut_corners_oracle(vphi, verts)
        for got, want in zip((elem, bary, area), oracle):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_corners_are_the_oracles_on_random_tets(self, rng):
        """Rebuilt corners, areas and orientation of 500 random cut tets, byte for byte, with one- and two-triangle cuts."""
        vphi = rng.standard_normal((800, 4))
        vphi = vphi[(vphi.min(axis=1) < 0) & (vphi.max(axis=1) > 0)][:500]
        verts = UNIT_TET + 0.2 * rng.standard_normal((len(vphi), 4, 3))
        got = cut(vphi, verts)
        oracle = cut_corners_oracle(vphi, verts)
        assert len(vphi) < len(got[0]) < 2 * len(vphi)
        for a, b in zip(got, oracle):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_area_matches_polygon_clipping_oracle(self, rng):
        """1000 random cut tets agree with an independent edge-clipping area."""
        count = 0
        while count < 1000:
            vphi = rng.standard_normal(4)
            if vphi.min() >= 0 or vphi.max() <= 0 or np.any(vphi == 0):
                continue
            verts = UNIT_TET + 0.2 * rng.standard_normal((4, 3))
            area = extract_cuts(vphi[None], verts[None])[-1]
            poly = clip_polygon_oracle(vphi, verts)
            assert area.sum() == pytest.approx(polygon_area(poly), abs=1e-10)
            count += 1

    def test_exact_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            extract_cuts(np.array([[0.0, 1.0, -1.0, 1.0]]), UNIT_TET[None])

    def test_uncut_element_rejected(self):
        with pytest.raises(ValueError, match="no interface"):
            extract_cuts(np.array([[1.0, 1.0, 1.0, 1.0]]), UNIT_TET[None])


def pattern_values(rng, pattern, count, low=0.05):
    """Random vertex values (count, 4) of one sign pattern, |phi| in [low, 1]: negative where bit i of pattern is set."""
    negative = (pattern >> np.arange(4) & 1) == 1
    magnitude = rng.uniform(low, 1.0, (count, 4))
    return np.where(negative, -magnitude, magnitude)


class TestCutTable:
    @pytest.mark.parametrize("mirror", [1.0, -1.0])
    @pytest.mark.parametrize("pattern", range(1, 15))
    def test_every_pattern_cuts_sign_changes_along_the_gradient(self, rng, pattern, mirror):
        """Random values of one sign pattern on the unit tet and on its mirror image: normals with the gradient, corners on sign changes, the clipped area."""
        vphi = pattern_values(rng, pattern, 40)
        tet = UNIT_TET * (mirror, 1.0, 1.0)
        elem, edges, fracs, area = extract_cuts(vphi, np.broadcast_to(tet, (len(vphi), 4, 3)))
        assert elem.tolist() == np.repeat(np.arange(len(vphi)), cutquad.CUT_COUNT[pattern]).tolist()
        assert np.all(vphi[elem[:, None], edges >> 2] * vphi[elem[:, None], edges & 3] < 0.0)
        pts = np.einsum("tcm,mi->tci", cutquad.corners(edges, fracs), tet)
        nvec = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        for t, e in enumerate(elem):
            assert np.dot(nvec[t], affine_gradient(vphi[e], tet)) > 0.0
        for e in range(len(vphi)):
            assert area[elem == e].sum() == pytest.approx(polygon_area(clip_polygon_oracle(vphi[e], tet)), rel=1e-12)

    @pytest.mark.parametrize("mirror", [1.0, -1.0])
    def test_a_zero_area_triangle_keeps_its_tabulated_order(self, rng, mirror):
        """A separated vertex at |phi| < 1e-19 puts every corner on it, so the triangle has no area and no normal.

        Its corners come out in the table's order, mirrored on a tet of
        negative volume, for every draw of the other values.
        """
        tet = 2.0 + UNIT_TET * (mirror, 1.0, 1.0)  # no coordinate near 0: a corner rounds to its vertex
        for pattern in np.flatnonzero(cutquad.CUT_COUNT == 1):
            bits = pattern >> np.arange(4) & 1
            vphi = pattern_values(rng, pattern, 20, low=0.5)
            vphi[:, np.flatnonzero(bits == (bits.sum() == 1))] *= 1e-20  # the separated vertex
            elem, edges, fracs, area = extract_cuts(vphi, np.broadcast_to(tet, (len(vphi), 4, 3)))
            order = [0, 1, 2] if mirror > 0 else [0, 2, 1]
            expected = cutquad._CUT_EDGES[pattern][cutquad._CUT_TRIS[pattern, 0, 0]][order]
            assert np.all(area == 0.0)
            assert np.all(edges == expected), pattern


def mesh_section_area(levelset, n):
    """Total piecewise-linear interface area over the active mesh."""
    mesh = ActiveMesh.build(MeshParams(n), levelset, 1)
    return extract_cuts(mesh.vertex_phi, mesh.verts_phys(slice(None)))[-1].sum()


class TestMeshSections:
    def test_axis_plane_section_recovers_the_box_cross_section(self):
        n = 8
        total = mesh_section_area(shifted_plane(0.5, n), n)
        assert total == pytest.approx(16.0, abs=1e-10)

    def test_tilted_plane_section_matches_half_space_oracle(self):
        normal = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        plane = Plane(normal, 0.2)
        oracle = plane_box_section_area(normal, 0.2, (-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
        assert mesh_section_area(plane, 7) == pytest.approx(oracle, abs=1e-10)

    def test_torus_area_converges_at_second_order(self):
        target = 4.0 * np.pi**2 * 1.0 * 0.6
        errs = [abs(mesh_section_area(Torus(), n) - target) for n in (8, 16, 32)]
        eocs = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(eocs >= 1.7)

    def test_sphere_area_converges_to_closed_form(self):
        target = 4.0 * np.pi * 1.3**2
        errs = [abs(mesh_section_area(Sphere(1.3), n) - target) for n in (8, 16, 32)]
        eocs = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(eocs >= 1.7)


class TestCompositeRules:
    """The triangle rule on the cut's triangles, as SurfaceData composes them, and the tetrahedron rule on a physical element."""

    def test_surface_rule_weights_sum_to_interface_area(self, rng):
        vphi = rng.standard_normal(4)
        vphi[0] = -abs(vphi[0]) - 0.1
        vphi[1:] = np.abs(vphi[1:]) + 0.1
        _, bary, area = cut(vphi[None], UNIT_TET[None])
        lam, w = triangle_rule(4)
        pts = np.einsum("qc,tcm->tqm", lam, bary)
        assert (area[:, None] * w).sum() == pytest.approx(area.sum(), rel=1e-13)
        assert pts.shape[-1] == 4
        np.testing.assert_allclose(pts.sum(axis=-1), 1.0, atol=1e-13)

    def test_surface_rule_integrates_linear_fields_exactly(self):
        """Integral of an affine function over the flat interface polygon."""
        vphi = np.array([-0.7, 0.4, 0.9, 0.3])
        _, bary, area = cut(vphi[None], UNIT_TET[None])
        coef = np.array([0.3, -1.1, 0.7])
        lam, w = triangle_rule(2)
        x = np.einsum("qc,tcm,mi->tqi", lam, bary, UNIT_TET)
        got = np.sum(area[:, None] * w * (x @ coef + 0.25))
        exact = sum(
            a * ((tri @ UNIT_TET).mean(axis=0) @ coef + 0.25)
            for tri, a in zip(bary, area)
        )  # affine: centroid value times area
        assert got == pytest.approx(exact, rel=1e-12)

    def test_volume_rule_measures_the_tetrahedron(self, rng):
        verts = UNIT_TET + 0.2 * rng.standard_normal((4, 3))
        vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
        lam, w = tet_rule(3)
        w = w * vol
        assert w.sum() == pytest.approx(vol, rel=1e-13)
        # degree-1 exactness in physical coordinates
        x = lam @ verts
        got = np.sum(w * x[:, 0])
        exact = vol * verts[:, 0].mean()  # centroid rule is exact for affine
        assert got == pytest.approx(exact, rel=1e-12)

    def test_volume_rule_on_mesh_element(self):
        """Under the identity, every element's volume weights sum to its volume."""
        _, mesh = torus_mesh(4, 1)
        vol = VolumeData.build(IsoMapping(mesh, np.zeros((mesh.ndofs, 3))))
        for _, _, w in vol.chunks():
            np.testing.assert_allclose(w.sum(axis=1), mesh.elem_volume, rtol=1e-13)
