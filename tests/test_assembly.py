"""Assembled forms checked against closed-form flat-interface integrals."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from tracefem import assembly, backends
from tracefem import mapping as mapping_module
from tracefem import mesh as mesh_module
from tracefem.assembly import (
    VARIANTS,
    Pattern,
    StabConfig,
    SurfaceData,
    VolumeData,
    _facet_chunks,
    _ghost_dofs,
    assemble_s,
    assemble_system,
)
from tracefem.cutquad import corners, extract_cuts, tet_rule, triangle_rule
from tracefem.levelset import Plane, make_benchmark, shifted_plane
from tracefem.mapping import IsoMapping, build_theta, facet_jump_psi
from tracefem.mesh import FacetSet
from tracefem.metrics import compute_errors
from tracefem.reference import interpolate

from helpers import (
    benchmark_interpolant,
    chunk_footprints,
    chunk_peaks,
    cut_corners_oracle,
    kept_and_peak,
    pattern_unique_keys,
    plane_box_section_area,
    plane_case,
    sphere_case,
    stabilization_matrix,
    stream_peaks,
    torus_benchmark,
    torus_case,
    torus_mesh,
)

BOX_LO = (-2.0, -2.0, -2.0)
BOX_HI = (2.0, 2.0, 2.0)


class ConstantProblem:
    def __init__(self, value=1.0):
        self.value = value

    def rhs(self, x):
        return np.full(len(np.atleast_2d(x)), self.value)


def none_system(mesh, dls, mapping, problem=None):
    """The 'none' system: S is the stiffness A, with c and f from the same surface pass."""
    return assemble_system(mesh, dls, mapping, problem or ConstantProblem(), StabConfig("none"))


def xz_fields(mesh):
    """Coefficient vectors reproducing the coordinate functions x1 and x3."""
    return mesh.dof_points[:, 0].copy(), mesh.dof_points[:, 2].copy()


# (case, n, k, variant) of the footprint table in LiftedRule's docstring
FOOTPRINT_CASES = [
    *(("torus", 32, 1, v) for v in ("ghost_penalty", "normal_volume", "full_gradient_volume")),
    *(("torus", 12, k, v) for k in (2, 3) for v in ("normal_volume", "full_gradient_volume", "full_gradient_surface")),
    *(("sphere", 8, k, v) for k in (4, 5) for v in ("normal_volume", "full_gradient_volume")),
]


def chunk_footprint_table(case, n, k, variant):
    """{"assembly" | "errors": chunk_footprints} of assemble_system with variant and of compute_errors on one level."""
    _, mesh, dls, mapping = {"torus": torus_case, "sphere": sphere_case}[case](n, k)
    problem = make_benchmark(case)
    mesh.facets  # built once per mesh, outside the assembly
    u = benchmark_interpolant(mesh, problem)
    return {
        "assembly": chunk_footprints(chunk_peaks(lambda: assemble_system(mesh, dls, mapping, problem, StabConfig(variant)))),
        "errors": chunk_footprints(chunk_peaks(lambda: compute_errors(mapping, u, problem))),
    }


# (case, n, k) of the streamed loops outside the lifted rules that this file prints as a script
STREAM_CASES = [("torus", 64, 1), ("torus", 32, 2), ("torus", 20, 3), ("sphere", 8, 5)]


def streamed_loops(case, n, k):
    """{name: (module whose element_chunks it calls, run)} of the streamed loops outside the lifted rules on one level.

    The interface cut, Pattern's offset search, Theta's build (with its
    linear-cut normals) and, at k = 1, the ghost penalty's dof and jump
    passes, else facet_jump_psi; each run's inputs are made beforehand.
    """
    _, mesh, dls, mapping = {"torus": torus_case, "sphere": sphere_case}[case](n, k)
    loops = {
        "cut": (assembly, lambda: (assembly._CUTS.pop(mesh, None), SurfaceData.build(mapping))),
        "Pattern": (assembly, lambda: Pattern(mesh.ndofs, elements=mesh.elem_dofs)),
        "Theta": (mapping_module, lambda: build_theta(dls)),
    }
    if k == 1:
        facets, columns = _ghost_dofs(mesh)
        out = Pattern(mesh.ndofs, elements=mesh.elem_dofs, facets=facets)
        loops["ghost dofs"] = (assembly, lambda: _ghost_dofs(mesh))
        loops["ghost jumps"] = (assembly, lambda: assemble_s(mapping, StabConfig("ghost_penalty"), out, columns))
    else:
        loops["facet_jump_psi"] = (mapping_module, lambda: facet_jump_psi(dls))
    return loops


class TestStabConfig:
    def test_defaults_per_variant(self):
        h, k = 0.25, 2
        assert StabConfig("none").resolve_rho(h, k) == 0.0
        assert StabConfig("ghost_penalty").resolve_rho(h, 1) == 1.0
        assert StabConfig("full_gradient_surface").resolve_rho(h, k) == 1.0
        assert StabConfig("full_gradient_volume").resolve_rho(h, k) == pytest.approx(h)
        assert StabConfig("normal_volume").resolve_rho(h, k) == pytest.approx(1.0 / h)

    def test_named_scalings(self):
        assert StabConfig("normal_volume", "h_inv").resolve_rho(0.5, 3) == 2.0
        assert StabConfig("normal_volume", "h_times_k4").resolve_rho(0.5, 3) == pytest.approx(81 * 0.5)
        assert StabConfig("normal_volume", ("custom", 2.0, 0.5)).resolve_rho(0.25, 1) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="variant"):
            StabConfig("jumpy")
        with pytest.raises(ValueError, match="rho"):
            StabConfig("normal_volume", "h_squared")
        with pytest.raises(ValueError, match="custom"):
            StabConfig("normal_volume", ("custom", 1.0))
        with pytest.raises(ValueError, match="exponent"):
            StabConfig("normal_volume", ("custom", 1.0, 2.0))
        # the window constraint only binds the normal-volume variant
        StabConfig("full_gradient_volume", ("custom", 1.0, 2.0))
        # sqrt(rho) scales the full-gradient surface integrand
        nan, inf = float("nan"), float("inf")
        for pre, expo in ((nan, 0.0), (-1.0, 0.0), (inf, 0.0), (1.0, nan), (1.0, inf), (1.0, -inf)):
            with pytest.raises(ValueError, match="finite"):
                StabConfig("full_gradient_surface", ("custom", pre, expo))
        assert StabConfig("full_gradient_surface", ("custom", 0.0, 0.0)).resolve_rho(0.5, 2) == 0.0


class TestStiffness:
    def test_axis_plane_energy_of_x_is_the_section_area(self):
        """P grad(x1) has unit length on the z-plane, so a(x1,x1) = |section|."""
        n = 8
        mesh, dls, mapping = plane_case(shifted_plane(0.5, n), n, 1)
        A = none_system(mesh, dls, mapping).S
        ux, _ = xz_fields(mesh)
        assert ux @ (A @ ux) == pytest.approx(16.0, abs=1e-10)

    def test_tilted_plane_energy_picks_up_the_projection(self):
        normal = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        plane = Plane(normal, 0.2)
        mesh, dls, mapping = plane_case(plane, 7, 1)
        A = none_system(mesh, dls, mapping).S
        ux, _ = xz_fields(mesh)
        area = plane_box_section_area(normal, 0.2, BOX_LO, BOX_HI)
        assert ux @ (A @ ux) == pytest.approx((1.0 - normal[0] ** 2) * area, abs=1e-10)

    def test_quadratic_energy_on_the_plane(self):
        """u = x1^2 on the flat z-plane: integral of 4 x1^2 over the section."""
        n = 8
        mesh, dls, mapping = plane_case(shifted_plane(0.5, n), n, 2)
        A = none_system(mesh, dls, mapping).S
        u = mesh.dof_points[:, 0] ** 2
        exact = 4.0 * (16.0 / 3.0) * 4.0  # int 4 x^2 over [-2,2]^2
        assert u @ (A @ u) == pytest.approx(exact, rel=1e-12)

    def test_constants_are_in_the_kernel(self):
        _, mesh, dls, mapping = torus_case(16, 2)
        A = none_system(mesh, dls, mapping).S
        ones = np.ones(mesh.ndofs)
        scale = abs(A).sum()
        assert np.abs(A @ ones).max() <= 1e-12 * scale

    def test_symmetric_positive_semidefinite(self, rng):
        _, mesh, dls, mapping = torus_case(16, 2)
        A = none_system(mesh, dls, mapping).S
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
        for _ in range(10):
            v = rng.standard_normal(mesh.ndofs)
            assert v @ (A @ v) >= -1e-10 * (v @ v)

    def test_sparsity_is_contained_in_element_adjacency(self):
        mesh, dls, mapping = plane_case(shifted_plane(0.5, 5), 5, 2)
        A = none_system(mesh, dls, mapping).S
        allowed = set()
        for row in mesh.elem_dofs:
            for i in row:
                for j in row:
                    allowed.add((int(i), int(j)))
        A = A.tocoo()
        got = set(zip(A.row.tolist(), A.col.tolist()))
        assert got <= allowed


class TestStabilizations:
    def test_normal_volume_measures_the_active_volume(self):
        """u = x3 on the z-plane: (n . grad u)^2 = 1, so s = rho * |active domain|."""
        n = 8
        mesh, dls, mapping = plane_case(shifted_plane(0.5, n), n, 1)
        S = stabilization_matrix(mapping, StabConfig("normal_volume", ("custom", 1.0, 0.0)))
        ux, uz = xz_fields(mesh)
        vol = mesh.nelems * mesh.elem_volume
        assert uz @ (S @ uz) == pytest.approx(vol, rel=1e-12)
        assert ux @ (S @ ux) == pytest.approx(0.0, abs=1e-12)

    def test_rho_scales_linearly(self):
        _, mesh, dls, mapping = torus_case(16, 2)
        S1 = stabilization_matrix(mapping, StabConfig("normal_volume", ("custom", 1.0, 0.0)))
        S2 = stabilization_matrix(mapping, StabConfig("normal_volume", ("custom", 2.0, 0.0)))
        assert abs(S2 - 2.0 * S1).max() <= 1e-12 * abs(S1).max()

    def test_full_gradient_surface_applies_rho(self):
        """A custom rho scales the full-gradient surface stabilization in the assembled S."""
        _, mesh, dls, mapping = torus_case(8, 1)
        default, five = StabConfig("full_gradient_surface"), StabConfig("full_gradient_surface", ("custom", 5.0, 0.0))
        A = none_system(mesh, dls, mapping).S
        S1, S5 = (assemble_system(mesh, dls, mapping, torus_benchmark(), stab).S for stab in (default, five))
        assert abs((S5 - A) - 5.0 * (S1 - A)).max() <= 1e-14 * abs(S5).max()

    def test_full_gradient_surface_measures_the_section(self):
        """u = x3 on the z-plane: S - A is (n . grad u)^2 = 1 over the section, and nothing for u = x1."""
        n = 8
        mesh, dls, mapping = plane_case(shifted_plane(0.5, n), n, 1)
        S = assemble_system(mesh, dls, mapping, ConstantProblem(), StabConfig("full_gradient_surface")).S
        S = S - none_system(mesh, dls, mapping).S
        ux, uz = xz_fields(mesh)
        assert uz @ (S @ uz) == pytest.approx(16.0, abs=1e-10)
        assert ux @ (S @ ux) == pytest.approx(0.0, abs=1e-12)

    def test_full_gradient_volume_measures_the_gradient(self):
        n = 8
        mesh, dls, mapping = plane_case(shifted_plane(0.5, n), n, 1)
        rho = StabConfig("full_gradient_volume").resolve_rho(mesh.h, 1)
        S = stabilization_matrix(mapping, StabConfig("full_gradient_volume"))
        coef = np.array([0.7, -0.3, 1.1])
        u = mesh.dof_points @ coef
        vol = mesh.nelems * mesh.elem_volume
        assert u @ (S @ u) == pytest.approx(rho * vol * coef @ coef, rel=1e-12)

    def test_ghost_penalty_vanishes_on_globally_affine_fields(self):
        _, mesh, dls, mapping = torus_case(8, 1)
        S = stabilization_matrix(mapping, StabConfig("ghost_penalty"))
        u = mesh.dof_points @ np.array([0.2, -1.0, 0.4]) + 0.3
        scale = abs(S).max()
        assert u @ (S @ u) <= 1e-12 * scale * (u @ u)
        assert abs(S - S.T).max() <= 1e-14 * scale

    def test_ghost_penalty_rejects_higher_degrees(self):
        _, mesh, dls, mapping = torus_case(16, 2)
        with pytest.raises(ValueError, match="higher-order"):
            assemble_system(mesh, dls, mapping, torus_benchmark(), StabConfig("ghost_penalty"))

    def test_ghost_penalty_couples_facet_neighbours(self, rng):
        _, mesh, dls, mapping = torus_case(8, 1)
        S = stabilization_matrix(mapping, StabConfig("ghost_penalty")).tocoo()
        fs = mesh.facets
        allowed = set()
        for lo, hi in fs.elems.tolist():
            dofs = np.concatenate([mesh.elem_dofs[lo], mesh.elem_dofs[hi]])
            for i in dofs:
                for j in dofs:
                    allowed.add((int(i), int(j)))
        got = set(zip(S.row.tolist(), S.col.tolist()))
        assert got <= allowed
        v = rng.standard_normal(mesh.ndofs)
        assert v @ (S @ v) > 0  # generic fields are penalized

    def test_ghost_penalty_matches_the_outer_product_of_both_elements(self):
        """The five-dof patch gives the matrix of the jump over both elements' eight dofs."""
        _, mesh, dls, mapping = torus_case(16, 1)
        S = stabilization_matrix(mapping, StabConfig("ghost_penalty"))
        fs = mesh.facets
        area, normal = fs.geometry()
        gn = [np.einsum("fmi,fi->fm", mesh.bary_grad(e), normal) for e in fs.elems.T]
        J = np.concatenate([gn[0], -gn[1]], axis=1)  # (F, 8)
        dofs = np.concatenate([mesh.elem_dofs[e] for e in fs.elems.T], axis=1)
        local = area[:, None, None] * J[:, :, None] * J[:, None, :]
        rows, cols = np.repeat(dofs, 8, axis=1).ravel(), np.tile(dofs, (1, 8)).ravel()
        oracle = sp.coo_matrix((local.ravel(), (rows, cols)), shape=S.shape).tocsr()
        assert S.nnz == oracle.nnz
        assert abs(S - oracle).max() <= 1e-15 * abs(S).max()

    def test_ghost_penalty_in_facet_chunks_is_the_whole_mesh_penalty_to_the_bit(self, monkeypatch):
        """Ragged chunks of 7 facets give the data, indices and indptr of S byte for byte as one chunk of every facet's patches."""
        _, mesh, dls, mapping = torus_case(16, 1)
        stab = StabConfig("ghost_penalty")
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", 2**40)
        assert len(_facet_chunks(mesh)) == 1
        whole = stabilization_matrix(mapping, stab)
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", 7 * 4 * 2 * 4 * 3 + 23)
        assert len(_facet_chunks(mesh)) > 1 and len(mesh.facets) % 7
        chunked = stabilization_matrix(mapping, stab)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(chunked, name), getattr(whole, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_none_variant_is_the_zero_matrix(self):
        _, mesh, dls, mapping = torus_case(8, 1)
        S = stabilization_matrix(mapping, StabConfig("none"))
        assert S.nnz == 0
        assert S.shape == (mesh.ndofs, mesh.ndofs)


class TestConstraintAndLoad:
    def test_constraint_sums_to_the_section_area(self):
        n = 8
        mesh, dls, mapping = plane_case(shifted_plane(0.5, n), n, 2)
        c = none_system(mesh, dls, mapping).c
        assert c.sum() == pytest.approx(16.0, abs=1e-10)

    def test_constraint_total_is_the_lifted_area_and_converges(self):
        """sum(c) = |Gamma_h| approaches the exact torus area at high order."""
        target = 4.0 * np.pi**2 * 0.6
        errs = []
        for n in (16, 32):
            _, mesh, dls, mapping = torus_case(n, 2)
            total = none_system(mesh, dls, mapping).c.sum()
            errs.append(abs(total - target))
        assert np.log2(errs[0] / errs[1]) >= 2.7

    def test_flat_constraint_matches_triangle_areas(self):
        _, mesh, dls, mapping = torus_case(8, 1)
        c = none_system(mesh, dls, mapping).c
        area = extract_cuts(mesh.vertex_phi, mesh.verts_phys(slice(None)))[-1]
        assert c.sum() == pytest.approx(area.sum(), rel=1e-13)

    def test_constant_load_is_projected_away(self):
        _, mesh, dls, mapping = torus_case(16, 2)
        sys = none_system(mesh, dls, mapping, ConstantProblem(3.7))
        c, f = sys.c, sys.f
        assert np.abs(f).max() <= 1e-12 * abs(c).max()

    def test_load_is_mean_zero(self):
        _, mesh, dls, mapping = torus_case(16, 2)
        f = none_system(mesh, dls, mapping, torus_benchmark()).f
        assert abs(f.sum()) <= 1e-12 * np.linalg.norm(f) * np.sqrt(mesh.ndofs)


def lifted_arrays(rule):
    """Per-point arrays of a rule concatenated from its chunks: the weights w and the Lift's fields, flattened to (P, ...)."""
    parts = {}
    for _, lift, w in rule.chunks():
        parts.setdefault("w", []).append(w.ravel())
        for name in ("vals", "gref", "invJ", "y", "nh"):
            a = getattr(lift, name)
            if a is not None:
                parts.setdefault(name, []).append(a.reshape(-1, *a.shape[2:]))
    return {name: np.concatenate(a) for name, a in parts.items()}


class TestGeometryData:
    def test_assembly_rejects_a_level_set_or_mapping_of_another_mesh(self):
        """assemble_system takes one level: a level set interpolated or a Theta built on another mesh is refused before the cut."""
        ls, coarse = torus_mesh(8, 2)
        _, mesh, dls, mapping = torus_case(16, 2)
        with pytest.raises(ValueError, match="not one level"):
            assemble_system(mesh, interpolate(ls, coarse), mapping, torus_benchmark(), StabConfig())
        _, _, _, alien = torus_case(12, 2)
        with pytest.raises(ValueError, match="not one level"):
            assemble_system(mesh, dls, alien, torus_benchmark(), StabConfig())
        assert mesh not in assembly._CUTS  # refused before the cut

    def test_lifted_weights_reduce_to_flat_areas_for_identity(self):
        _, mesh, dls, mapping = torus_case(8, 1)
        surf = lifted_arrays(SurfaceData.build(mapping, degree=2))
        area = extract_cuts(mesh.vertex_phi, mesh.verts_phys(slice(None)))[-1]
        assert surf["w"].sum() == pytest.approx(area.sum(), rel=1e-13)
        np.testing.assert_allclose(
            np.linalg.norm(surf["nh"], axis=1), 1.0, atol=1e-13
        )

    def test_volume_data_tracks_the_jacobian_determinant(self):
        """Theta(x) = 2x has det = 8, scaling the measure accordingly."""
        _, mesh, dls, _ = torus_case(8, 1)
        doubling = IsoMapping(mesh, mesh.dof_points.copy())
        vol = lifted_arrays(VolumeData.build(doubling, degree=2))
        total = mesh.nelems * mesh.elem_volume
        assert vol["w"].sum() == pytest.approx(8.0 * total, rel=1e-12)

    def test_volume_rule_evaluates_the_basis_once_per_reference_point(self, monkeypatch):
        """Every element shares the q reference points, so the basis is evaluated at q points, not E*q."""
        _, mesh, _, mapping = torus_case(16, 2)
        original, calls = backends.eval_basis, []

        def counting(k, lam):
            calls.append(len(lam))
            return original(k, lam)

        monkeypatch.setattr(backends, "eval_basis", counting)
        vol = VolumeData.build(mapping, 4)
        lifted_arrays(vol)
        q = len(tet_rule(4)[1])
        assert calls == [q]
        assert len(vol.elems) == mesh.nelems * q

    def test_chunked_surface_rule_matches_one_lift_of_all_triangles(self, monkeypatch):
        """Ragged chunks of 5 triangles give, point for point, what one lift of every triangle gives.

        The elements are cut chunk by chunk too, and give the triangles of
        one cut of every element.
        """
        _, mesh, dls, mapping = torus_case(16, 2)
        lam, wq = triangle_rule(4)
        q = len(wq)
        NB = mesh.ref.ndofs
        a, b = SurfaceData.POINT_DOUBLES
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", 6 * q * (a * NB + b) - 1)
        rule = SurfaceData.build(mapping, 4)
        surf = lifted_arrays(rule)
        tri_elem, tri_bary, tri_area = cut_corners_oracle(mesh.vertex_phi, mesh.verts_phys(slice(None)))
        assert len(rule.slices()) > 1 and {s.stop - s.start for s in rule.slices()[:-1]} == {5}
        assert len(mesh_module.element_chunks(mesh.nelems, 4 * 2 * 3 * 4)) > 1
        np.testing.assert_array_equal(corners(rule.tri_edges, rule.tri_fracs), tri_bary)
        np.testing.assert_array_equal(rule.tri_area, tri_area)
        lift = mapping.lift(tri_elem, np.einsum("qc,tcm->tqm", lam, tri_bary))
        np.testing.assert_array_equal(rule.elems, np.repeat(tri_elem, q))
        np.testing.assert_array_equal(surf["w"], (tri_area[:, None] * wq * lift.det * lift.nn).ravel())
        for name in ("invJ", "nh", "vals", "gref", "y"):
            a = getattr(lift, name)
            np.testing.assert_array_equal(surf[name], a.reshape(-1, *a.shape[2:]))

    def test_cut_written_in_place_is_one_cut_of_every_element(self, monkeypatch):
        """Ragged chunks of 7 elements write, byte for byte, the four arrays of one extract_cuts over every element.

        Their corners rebuilt, the triangles' corners (T, 3, 4), areas and
        orientation are the bytes of the oracle's, which forms the corners
        whole; the elements are its values in int32.
        """
        _, mesh, dls, mapping = torus_case(16, 1)
        assembly._CUTS.pop(mesh, None)
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", 7 * 4 * 2 * 3 * 4 + 23)
        assert len(mesh_module.element_chunks(mesh.nelems, 4 * 2 * 3 * 4)) > 1 and mesh.nelems % 7
        rule = SurfaceData.build(mapping)
        whole = extract_cuts(mesh.vertex_phi, mesh.verts_phys(slice(None)))
        kept = (rule.cells, rule.tri_edges, rule.tri_fracs, rule.tri_area)
        for got, want, dtype in zip(kept, whole, (np.int32, np.uint8, np.float64, np.float64)):
            assert got.dtype == dtype and got.shape == want.shape and got.tobytes() == want.astype(dtype).tobytes()
            assert not got.flags.writeable
        tri_elem, tri_bary, tri_area = cut_corners_oracle(mesh.vertex_phi, mesh.verts_phys(slice(None)))
        assert mesh.nelems < len(tri_elem) < 2 * mesh.nelems  # both one- and two-triangle cuts
        np.testing.assert_array_equal(rule.cells, tri_elem)
        assert corners(rule.tri_edges, rule.tri_fracs).tobytes() == tri_bary.tobytes()
        assert rule.tri_area.tobytes() == tri_area.tobytes()

    def test_first_cut_peaks_at_its_triangles_and_one_chunk(self):
        """At torus k=1 n=64 the cut allocates its triangles, 2.0 MiB, and one chunk of elements' cuts, 2.2 MiB, not a second copy of the triangles.

        That is at most 1.125 CHUNK_DOUBLES doubles above what it keeps.
        The cut kept (T, 3, 4) corners before, 5.8 MiB, and its chunk
        peaked 3.4 MiB above them.
        """
        _, mesh, dls, mapping = torus_case(64, 1)
        kept, above = kept_and_peak(lambda: SurfaceData.build(mapping))
        rule = SurfaceData.build(mapping)
        assert kept >= sum(a.nbytes for a in (rule.cells, rule.tri_edges, rule.tri_fracs, rule.tri_area))
        assert above <= 1.125 * mesh_module.CHUNK_DOUBLES * 8, f"{above / 2**20:.2f} MiB above the triangles"

    @pytest.mark.parametrize("n, k", [(64, 1), (20, 3)])
    def test_streamed_loops_peak_within_one_chunk_budget(self, n, k):
        """Theta's build and the ghost penalty's dof and jump passes each peak at most 1.125 CHUNK_DOUBLES doubles above what they keep.

        At torus k=1 n=64 Theta (the identity and its linear-cut normals)
        peaks 0.75 MiB above what it keeps, the dof pass 0.68 and the jump
        pass 1.40 MiB; at torus k=3 n=20 Theta peaks 1.03 MiB.  Formed for
        every element at once, the normals alone took Theta at k=1 n=64 to
        3.76 MiB.
        """
        limit = 1.125 * mesh_module.CHUNK_DOUBLES * 8
        loops = streamed_loops("torus", n, k)
        names = ["Theta", "ghost dofs", "ghost jumps"] if k == 1 else ["Theta"]
        for name in names:
            _, above = kept_and_peak(loops[name][1])
            assert above <= limit, f"{name}: {above / 2**20:.2f} MiB above what it keeps"

    def test_surface_rule_memory_does_not_grow_with_the_mesh(self):
        """At torus k=1 n=64 the degree-2 rule of the errors, its cut included, allocates at most 14 MiB at its peak (5.2 measured), lifted chunk by chunk."""
        _, mesh, dls, mapping = torus_case(64, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in SurfaceData.build(mapping, 2).chunks():
                pass
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_surface_rule_keeps_triangles_not_points(self):
        """The degree-6 rule (16 points) keeps 39 bytes per triangle: its int32 element, three uint8 edge codes, three edge fractions and its area.

        Corners (T, 3, 4) would add 72 bytes, points (T, 16, 4) 512.
        """
        _, mesh, dls, mapping = torus_case(16, 2)
        assembly._CUTS.pop(mesh, None)  # measured with its cut
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rule = SurfaceData.build(mapping, 6)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rule.q == 16
        assert kept <= 48 * len(rule.cells), f"{kept / len(rule.cells):.1f} B per triangle"

    def test_chunked_volume_rule_matches_one_unchunked_lift(self, monkeypatch):
        """Ragged chunks of 5 elements and the Kuhn-shape table give the per-point data of one lift of all points."""
        _, mesh, dls, mapping = torus_case(16, 2)
        lam, wq = tet_rule(4)
        q = len(wq)
        rule = VolumeData.build(mapping, 4)
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", 6 * rule.cell_doubles - 1)
        assert len(rule.slices()) > 1 and {s.stop - s.start for s in rule.slices()[:-1]} == {5}
        vol = lifted_arrays(rule)
        lift = mapping.lift(np.arange(mesh.nelems), lam)  # gradients from the basis at every element
        np.testing.assert_allclose(vol["w"], (wq * mesh.elem_volume * lift.det).ravel(), rtol=1e-14)
        np.testing.assert_allclose(vol["invJ"], lift.invJ.reshape(-1, 3, 3), rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(vol["nh"], lift.nh.reshape(-1, 3), rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(rule.elems, np.repeat(np.arange(mesh.nelems), q))
        # the normal-volume matrix against the full lifted gradients of that lift
        dn = np.einsum("eqbi,eqi->eqb", lift.grads, lift.nh)
        local = np.einsum("eqi,eqj,eq->eij", dn, dn, vol["w"].reshape(-1, q))
        dofs = mesh.elem_dofs
        S = sp.coo_matrix(
            (local.ravel(), (np.repeat(dofs, dofs.shape[1], axis=1).ravel(), np.tile(dofs, (1, dofs.shape[1])).ravel())),
            shape=(mesh.ndofs, mesh.ndofs),
        ).tocsr()
        rho = ("custom", 1.0, 0.0)
        S_nv = stabilization_matrix(mapping, StabConfig("normal_volume", rho))
        assert abs(S_nv - S).max() <= 1e-13 * abs(S).max()

    @pytest.mark.parametrize("variant", ["normal_volume", "full_gradient_surface"])
    def test_small_chunks_give_the_default_system_and_errors(self, variant, monkeypatch):
        """Chunks 64 times smaller (lifted, cut and Pattern) give S, c, f and the four errors of the default chunking.

        Each run cuts the interface afresh, at its own chunk size.
        """
        bench = torus_benchmark()
        _, mesh, dls, mapping = torus_case(16, 2)
        u = benchmark_interpolant(mesh, bench)

        def run():
            assembly._CUTS.pop(mesh, None)
            sys = assemble_system(mesh, dls, mapping, bench, StabConfig(variant))
            err = compute_errors(mapping, u, bench)
            return sys, np.array([err.e_dist, err.e_l2, err.e_h1t, err.e_h1n])

        ref, ref_err = run()
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", mesh_module.CHUNK_DOUBLES // 64)
        small, small_err = run()
        assert abs(small.S - ref.S).max() <= 1e-13 * abs(ref.S).max()
        for name in ("c", "f"):
            a, b = getattr(small, name), getattr(ref, name)
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name
        np.testing.assert_allclose(small_err, ref_err, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("variant, limit_mib", [("normal_volume", 12), ("full_gradient_volume", 12)])
    def test_volume_stabilization_memory_does_not_grow_with_the_mesh(self, variant, limit_mib):
        """At torus k=3 n=16 the volume stabilization allocates its pattern and one chunk: 10.4 MiB at its peak for both.

        With 4 MiB chunks and full_gradient_volume charged like
        normal_volume, the peaks were 12.3 and 16.0 MiB.
        """
        _, mesh, dls, mapping = torus_case(16, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stabilization_matrix(mapping, StabConfig(variant))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("case, n, k, variant", FOOTPRINT_CASES)
    def test_every_lifted_chunk_allocates_at_most_4_5_mib(self, case, n, k, variant):
        """Each chunk of the surface pass, the volume pass and compute_errors peaks at most 1.125 CHUNK_DOUBLES doubles above what was live when it started.

        That is 2.25 MiB, half the 4.5 MiB of the name, which held for
        chunks of twice the budget.  Charged 8 NB + 8 doubles a point like
        normal_volume's, the volume chunks of full_gradient_volume peaked
        at 7.65 and 7.54 MiB at torus k=2 and 3 n=12, against a 4 MiB
        budget.
        """
        limit = 1.125 * mesh_module.CHUNK_DOUBLES * 8 / 2**20
        rules = {"assembly": ["SurfaceData", "VolumeData"] if "volume" in variant else ["SurfaceData"], "errors": ["SurfaceData"]}
        for name, footprints in chunk_footprint_table(case, n, k, variant).items():
            assert list(footprints) == rules[name]
            for rule, (mib, per_point) in footprints.items():
                assert mib <= limit, f"{name} {rule}: {mib:.2f} MiB, {per_point:.0f} doubles per point"

    @pytest.mark.parametrize(
        "k, n, variant, limit_mib", [(3, 16, "normal_volume", 12.5), (1, 32, "ghost_penalty", 5), (1, 64, "ghost_penalty", 12)]
    )
    def test_assembled_system_memory_is_one_pattern_and_one_chunk(self, k, n, variant, limit_mib):
        """A and the stabilization are added into the data of one CSR pattern, so the peak is that pattern, the cut and one chunk.

        The peaks are 10.8, 4.2 and 10.5 MiB (12.7, 6.1 and 12.6 with
        4 MiB chunks of 19 NB + 20 doubles a surface point).  At torus k=1
        n=64 the cut is written in place as edge codes and fractions, 2.0
        MiB, and the ghost-penalty jumps are formed per facet chunk; the
        cut's (T, 3, 4) corners made it 16.3 MiB, and before that a (F, 5)
        jump array alive through the surface pass and the cut's
        concatenated copy 20.5 MiB.
        """
        _, mesh, dls, mapping = torus_case(n, k)
        mesh.facets  # built once per mesh, outside the assembly
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assemble_system(mesh, dls, mapping, torus_benchmark(), StabConfig(variant))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_ghost_patches_are_built_once_per_assembly(self, monkeypatch):
        """The patch dofs and columns of every facet are filled once, for the pattern, with no geometry or jump; each facet chunk's geometry and jumps are formed once, where they are added.

        The dof pass finds every chunk's patch columns and forms its dofs;
        the jump pass forms every chunk's areas and normals and its jumps
        from the columns the dof pass kept, in facet order.
        """
        _, mesh, dls, mapping = torus_case(8, 1)
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", 4 * 2 * 4 * 3 * 100)
        chunks = _facet_chunks(mesh)
        events = []

        def counted(name, original):
            def call(*args):
                events.append((name, args[1] if len(args) > 1 else None))  # the chunk, after the mesh or FacetSet
                return original(*args)
            return call

        monkeypatch.setattr(FacetSet, "geometry", counted("geometry", FacetSet.geometry))
        for name in ("dofs", "jumps"):
            monkeypatch.setattr(assembly, "_ghost_" + name, counted(name, getattr(assembly, "_ghost_" + name)))
        assemble_system(mesh, dls, mapping, torus_benchmark(), StabConfig("ghost_penalty"))
        assert len(chunks) > 1
        jump_pass = [e for s in chunks for e in (("geometry", s), ("jumps", s))]
        assert events == [("dofs", None)] + jump_pass

    def test_surface_stabilization_shares_the_surface_lift(self, monkeypatch):
        """full_gradient_surface lifts each surface point once."""
        _, mesh, dls, mapping = torus_case(12, 2)
        original, lifted = IsoMapping.lift, []

        def counting(self, elems, lam=None, gref=None):
            lifted.append(0 if lam is None else lam.shape[0] * lam.shape[1])
            return original(self, elems, lam, gref)

        monkeypatch.setattr(IsoMapping, "lift", counting)
        assemble_system(mesh, dls, mapping, torus_benchmark(), StabConfig("full_gradient_surface"))
        assert sum(lifted) == len(SurfaceData.build(mapping).elems)

    def test_full_gradient_surface_accumulates_once_per_surface_chunk(self, monkeypatch):
        """A and the full-gradient surface term are one integrand: one accumulate_sym call per chunk."""
        _, mesh, dls, mapping = torus_case(12, 2)
        surf = SurfaceData.build(mapping)
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", 50 * surf.cell_doubles)
        chunks = len(surf.slices())
        original, calls = backends.accumulate_sym, []
        monkeypatch.setattr(backends, "accumulate_sym", lambda v, w: calls.append(1) or original(v, w))
        assemble_system(mesh, dls, mapping, torus_benchmark(), StabConfig("full_gradient_surface"))
        assert chunks > 1
        assert len(calls) == chunks

    @pytest.mark.parametrize("n, k", [(8, 1), (12, 2), (10, 3)])
    def test_full_gradient_surface_matches_one_unchunked_lift(self, n, k):
        """S is the sum of w (Pg . Pg' + rho (n . g)(n . g')) over one lift of every interface triangle, rho = 5."""
        _, mesh, dls, mapping = torus_case(n, k)
        rho = 5.0
        lam, wq = triangle_rule(2 * k - 2)
        tri_elem, tri_bary, tri_area = cut_corners_oracle(mesh.vertex_phi, mesh.verts_phys(slice(None)))
        lift = mapping.lift(tri_elem, np.einsum("qc,tcm->tqm", lam, tri_bary))
        w = tri_area[:, None] * wq * lift.det * lift.nn
        g, nh = lift.grads, lift.nh
        dn = np.einsum("tqbi,tqi->tqb", g, nh)
        pg = g - dn[..., None] * nh[..., None, :]
        local = np.einsum("tq,tqai,tqbi->tab", w, pg, pg) + rho * np.einsum("tq,tqa,tqb->tab", w, dn, dn)
        dofs = mesh.elem_dofs[tri_elem]
        nb = dofs.shape[1]
        rows, cols = np.repeat(dofs, nb, axis=1).ravel(), np.tile(dofs, (1, nb)).ravel()
        oracle = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.ndofs, mesh.ndofs)).tocsr()
        stab = StabConfig("full_gradient_surface", ("custom", rho, 0.0))
        S = assemble_system(mesh, dls, mapping, torus_benchmark(), stab).S
        assert abs(S - oracle).max() <= 1e-13 * abs(S).max()

    def test_assembled_system_shares_its_pieces(self):
        """S is symmetric for every variant, and A plus the stabilization alone for all but the surface integrand's."""
        for variant in VARIANTS:
            _, mesh, dls, mapping = torus_case(8, 1) if variant == "ghost_penalty" else torus_case(16, 2)
            stab = StabConfig(variant)
            sys = assemble_system(mesh, dls, mapping, torus_benchmark(), stab)
            scale = abs(sys.S).max()
            if variant != "full_gradient_surface":
                parts = none_system(mesh, dls, mapping).S + stabilization_matrix(mapping, stab)
                assert sys.S.nnz == parts.nnz, variant
                assert abs(sys.S - parts).max() <= 1e-15 * scale, variant
            assert abs(sys.S - sys.S.T).max() <= 1e-12 * scale, variant
            assert sys.S.shape == (mesh.ndofs, mesh.ndofs) and sys.c.shape == sys.f.shape == (mesh.ndofs,)


class TestPattern:
    def test_scatter_matches_a_coo_assembly_of_the_same_blocks(self, rng):
        """Two block families of different widths; the last rows of the matrix stay empty."""
        n = 60
        blocks = {
            "elements": np.array([rng.choice(50, 4, replace=False) for _ in range(30)]),
            "facets": np.array([rng.choice(50, 5, replace=False) for _ in range(20)]),
        }
        pattern = Pattern(n, **blocks)
        rows, cols, vals = [], [], []
        for name, dofs in blocks.items():
            nb = dofs.shape[1]
            local = rng.standard_normal((len(dofs), nb, nb))
            pattern.add(name, slice(None), local)
            rows.append(np.repeat(dofs, nb, axis=1).ravel())
            cols.append(np.tile(dofs, (1, nb)).ravel())
            vals.append(local.ravel())
        S = pattern.matrix
        oracle = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)).tocsr()
        oracle.sort_indices()
        np.testing.assert_array_equal(S.indptr, oracle.indptr)
        np.testing.assert_array_equal(S.indices, oracle.indices)
        assert S.has_sorted_indices
        assert S.indices.dtype == oracle.indices.dtype
        np.testing.assert_allclose(S.data, oracle.data, rtol=1e-15, atol=1e-15 * abs(oracle.data).max())

    @staticmethod
    def assert_matches_unique_keys(n, blocks, offset=np.uint8):
        pattern = Pattern(n, **blocks)
        slots, indices, indptr = pattern_unique_keys(n, **blocks)
        for name, dofs in blocks.items():
            assert pattern.offsets[name].dtype == offset
            np.testing.assert_array_equal(pattern.matrix.indptr[dofs][..., None] + pattern.offsets[name], slots[name])
        np.testing.assert_array_equal(pattern.matrix.indices, indices)
        np.testing.assert_array_equal(pattern.matrix.indptr, indptr)

    @pytest.mark.parametrize("n, k", [(32, 1), (12, 3)])
    def test_chunked_search_matches_one_search_of_int64_keys(self, n, k):
        """The assembly's blocks (and ghost_penalty's facet patches at k=1), searched chunk by chunk."""
        _, mesh, _, _ = torus_case(n, k)
        blocks = {"elements": mesh.elem_dofs}
        if k == 1:
            blocks["facets"] = _ghost_dofs(mesh)[0]
        for d in blocks.values():
            assert len(mesh_module.element_chunks(len(d), 4 * d.shape[1] ** 2)) > 1
        self.assert_matches_unique_keys(mesh.ndofs, blocks)

    def test_int64_keys_past_two_to_the_31(self, rng, monkeypatch):
        """Dof ids up to n = 50,000 make n^2 > 2^31; ragged chunks of 7 blocks of 4."""
        n = 50_000
        blocks = {
            "elements": np.array([rng.choice(n, 4, replace=False) for _ in range(40)]),
            "facets": np.array([rng.choice(n, 5, replace=False) for _ in range(30)]),
        }
        assert n * n >= 2**31
        monkeypatch.setattr(mesh_module, "CHUNK_DOUBLES", 7 * 4 * 16 + 15)
        assert len(mesh_module.element_chunks(40, 4 * 16)) == 6
        self.assert_matches_unique_keys(n, blocks)

    def test_rows_longer_than_256_take_uint16_offsets(self, rng):
        """Dofs 0 and 1 share 256 blocks, so their rows hold more than 256 entries (and a count of 256 wraps a byte to 0)."""
        n = 5_000
        others = np.arange(2, n)
        blocks = {
            "elements": np.array([np.concatenate([[0, 1], rng.choice(others, 10, replace=False)]) for _ in range(256)]),
            "facets": np.array([np.concatenate([rng.choice(others, 4, replace=False), [0]]) for _ in range(30)]),
        }
        assert blocks["elements"].shape[1] > assembly.SORTED_SEARCH_DOFS
        assert np.diff(pattern_unique_keys(n, **blocks)[2]).max() > 256
        self.assert_matches_unique_keys(n, blocks, offset=np.uint16)


if __name__ == "__main__":
    # The footprint table of LiftedRule's docstring: every lifted chunk's peak under tracemalloc, per point.
    print(f"{'k':>2} {'NB':>3}  {'pass':<36}{'MiB':>5}  doubles per point")
    seen = set()
    for case, n, k, variant in FOOTPRINT_CASES:
        nb = len(backends.multi_indices(k))
        for name, footprints in chunk_footprint_table(case, n, k, variant).items():
            if name == "errors":  # the same for every variant
                if k in seen:
                    continue
                seen.add(k)
            for rule, (mib, per_point) in footprints.items():
                label = "compute_errors" if name == "errors" else f"{rule} {variant}"
                print(f"{k:>2} {nb:>3}  {label:<36}{mib:5.2f}  {per_point:4.0f} = {per_point / nb:4.1f} NB")
    # The streamed loops outside the lifted rules: each loop's charge per
    # cell and its fullest chunks' peak per cell, in doubles, and the whole
    # run's peak above what it keeps.
    print(f"\n{'level':<16}{'run':<16}{'loop':<22}{'charge':>7}{'cells':>6}{'peak':>9}{'MiB':>6}  MiB above kept")
    for case, n, k in STREAM_CASES:
        for name, (module, run) in streamed_loops(case, n, k).items():
            above = kept_and_peak(run)[1] / 2**20
            records = stream_peaks(run, module)
            for caller in dict.fromkeys(r[0] for r in records):
                mine = [r for r in records if r[0] == caller]
                most = max(r[1] for r in mine)
                per_cell = max(peak / 8 / cells for _, cells, _, peak in mine if cells == most)
                mib = max(r[3] for r in mine) / 2**20
                level = f"{case} k={k} n={n}"
                print(f"{level:<16}{name:<16}{caller:<22}{mine[0][2]:>7}{most:>6}{per_cell:>9.1f}{mib:>6.2f}  {above:.2f}")
