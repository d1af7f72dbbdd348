"""Active-mesh enumeration checked against a brute-force reimplementation."""

import itertools
import tracemalloc

import numpy as np
import pytest

from tracefem.levelset import Plane, Sphere, Torus, shifted_plane
from tracefem.mesh import (
    KUHN_VERTS,
    ActiveMesh,
    FacetSet,
    MeshError,
    MeshParams,
)

from helpers import (
    bary_of_points,
    brute_force_active,
    dof_index_of,
    dof_lattice,
    facet_geometry_oracle,
    facet_pairs_unique_rows,
    facet_triangles,
    geometry_oracle,
    kept_and_peak,
    kuhn_tets_of_cube,
    mesh_active_sets,
    mesh_from_vertex_values,
    node_patch,
    points_of_bary,
    torus_mesh,
)


def lattice_values(levelset, params):
    """Vertex grid of level-set values on the (n+1)^3 lattice."""
    n = params.n
    ax = [np.linspace(params.lo[d], params.hi[d], n + 1) for d in range(3)]
    X, Y, Z = np.meshgrid(*ax, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    return np.asarray(levelset.phi(pts)).reshape(n + 1, n + 1, n + 1)


class TestKuhnSubdivision:
    def test_matches_permutation_construction(self):
        lib = {frozenset(map(tuple, t.tolist())) for t in KUHN_VERTS}
        ref = {frozenset(map(tuple, t.tolist())) for t in kuhn_tets_of_cube()}
        assert lib == ref
        assert len(lib) == 6

    def test_every_tet_is_positively_oriented_with_volume_one_sixth(self):
        for t in range(6):
            v = KUHN_VERTS[t].astype(float)
            det = np.linalg.det(v[1:] - v[0])
            assert det == pytest.approx(1.0)  # volume = det/6 = 1/6

    def test_all_tets_share_the_main_diagonal(self):
        for t in range(6):
            rows = {tuple(r) for r in KUHN_VERTS[t].tolist()}
            assert (0, 0, 0) in rows and (1, 1, 1) in rows

    def test_tets_partition_the_cube(self, rng):
        """Random interior points land in exactly one tetrahedron."""
        pts = rng.random((500, 3))
        mats = []
        for t in range(6):
            v = KUHN_VERTS[t].astype(float)
            T = np.linalg.inv((v[1:] - v[0]).T)
            mats.append((v[0], T))
        hits = np.zeros(len(pts), dtype=int)
        for v0, T in mats:
            lam = (pts - v0) @ T.T
            inside = (lam.min(axis=1) > 1e-9) & (lam.sum(axis=1) < 1 - 1e-9)
            hits += inside
        # points on internal faces may be missed by the strict test; none may be doubled
        assert hits.max() == 1
        assert hits.mean() > 0.95


class TestActiveEnumeration:
    def test_torus_matches_brute_force(self):
        params = MeshParams(6)
        ls = Torus()
        mesh = ActiveMesh.build(params, ls, 1)
        expected = brute_force_active(params, lattice_values(ls, params))
        assert mesh_active_sets(mesh) == expected

    def test_sphere_matches_brute_force(self):
        params = MeshParams(5)
        ls = Sphere(1.3)
        mesh = ActiveMesh.build(params, ls, 1)
        expected = brute_force_active(params, lattice_values(ls, params))
        assert mesh_active_sets(mesh) == expected

    def test_vertex_grid_entry_point_agrees_with_callable(self):
        params = MeshParams(6)
        ls = Torus()
        grid = lattice_values(ls, params)
        a = ActiveMesh.build(params, ls, 1)
        b = mesh_from_vertex_values(params, grid, 1)
        assert np.array_equal(a.cube, b.cube)
        assert np.array_equal(a.tet, b.tet)
        np.testing.assert_array_equal(a.vertex_phi, b.vertex_phi)

    def test_plane_layer_cuts_every_tet_of_one_slab(self):
        """A plane strictly inside a cell layer cuts all 6 tets of each cube above it."""
        n = 8
        mesh = ActiveMesh.build(MeshParams(n), shifted_plane(0.5, n), 1)
        assert mesh.nelems == 6 * n * n
        assert np.all(mesh.cube[:, 2] == n // 2)

    def test_exact_zero_vertex_values_count_as_positive(self):
        params = MeshParams(2)
        z = np.arange(3, dtype=float) - 1.0
        grid = np.broadcast_to(z, (3, 3, 3)).copy()  # zero plane on the lattice
        mesh = mesh_from_vertex_values(params, grid, 1)
        expected = brute_force_active(params, grid)
        assert mesh_active_sets(mesh) == expected
        assert np.all(mesh.cube[:, 2] == 0)  # upper slab is uniformly nonnegative
        assert mesh.nelems == 6 * 4
        assert np.all(mesh.vertex_phi[mesh.vertex_phi > 0] == 1e-14 * params.h)

    def test_missing_surface_raises(self):
        with pytest.raises(MeshError, match="does not intersect"):
            ActiveMesh.build(MeshParams(8), Sphere(10.0), 1)

    def test_nonfinite_vertex_values_rejected(self):
        params = MeshParams(2)
        grid = np.ones((3, 3, 3))
        grid[1, 1, 1] = np.nan
        with pytest.raises(MeshError, match="finite"):
            mesh_from_vertex_values(params, grid, 1)

    def test_wrong_grid_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            mesh_from_vertex_values(MeshParams(4), np.ones((3, 3, 3)), 1)

    def test_build_is_deterministic(self):
        a = ActiveMesh.build(MeshParams(6), Torus(), 2)
        b = ActiveMesh.build(MeshParams(6), Torus(), 2)
        assert np.array_equal(a.cube, b.cube)
        assert np.array_equal(a.tet, b.tet)
        assert np.array_equal(a.elem_dofs, b.elem_dofs)
        np.testing.assert_array_equal(a.dof_points, b.dof_points)

    def test_element_count_scales_like_surface_area(self):
        counts = [torus_mesh(n, 1)[1].nelems for n in (8, 16, 32)]
        for coarse, fine in zip(counts, counts[1:]):
            assert 3.0 < fine / coarse < 5.0

    def test_vertex_phi_samples_the_level_set(self):
        ls, mesh = torus_mesh(4, 1)
        np.testing.assert_array_equal(
            mesh.vertex_phi, ls.phi(mesh.verts_phys(slice(None)).reshape(-1, 3)).reshape(-1, 4)
        )

    def test_every_active_element_changes_sign(self):
        _, mesh = torus_mesh(6, 1)
        assert np.all(mesh.vertex_phi.min(axis=1) < 0)
        assert np.all(mesh.vertex_phi.max(axis=1) > 0)


class TestMeshParams:
    def test_cell_size(self):
        p = MeshParams(8)
        assert p.h == pytest.approx(0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="positive integer"):
            MeshParams(0)


class TestGeometry:
    def test_vertices_and_volume(self):
        _, mesh = torus_mesh(4, 1)
        np.testing.assert_array_equal(
            mesh.verts_phys(slice(None)), mesh.params.lo + mesh.h * mesh.verts_lattice(slice(None))
        )
        assert mesh.elem_volume == pytest.approx(mesh.h**3 / 6.0)

    def test_build_keeps_no_per_element_geometry(self):
        """At torus k=1 n=64 a mesh keeps 115 bytes per element (cube, tet, vertex_phi, elem_dofs and the dof arrays); one (E, 4, 3) float64 array would add 96."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mesh = ActiveMesh.build(MeshParams(64), Torus(), 1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 128 * mesh.nelems, f"{kept / mesh.nelems:.1f} B per element"

    @pytest.mark.parametrize("k", [1, 3])
    def test_accessors_match_the_whole_array_formulas(self, k, rng):
        """Per-element geometry gathered for random subsets (repeats included) and slices is, bit for bit, the stored arrays' rows."""
        _, mesh = torus_mesh(16, k)
        whole = geometry_oracle(mesh)
        for elems in (rng.integers(0, mesh.nelems, size=257), np.array([mesh.nelems - 1]), slice(5, 905)):
            for name, expected in whole.items():
                np.testing.assert_array_equal(getattr(mesh, name)(elems), expected[elems], err_msg=name)

    def test_barycentric_round_trip(self, rng):
        _, mesh = torus_mesh(4, 2)
        lam = rng.dirichlet(np.ones(4), size=mesh.nelems)
        elems = np.arange(mesh.nelems)
        x = points_of_bary(mesh, elems, lam)
        np.testing.assert_allclose(bary_of_points(mesh, elems, x), lam, atol=1e-12)

    def test_barycentric_gradient_is_exact(self):
        """bary_grad rows are the constant gradients of the barycentric coordinates."""
        _, mesh = torus_mesh(4, 1)
        e = np.array([0, mesh.nelems - 1])
        for m in range(4):
            unit = np.zeros(4)
            unit[m] = 1.0
            x0 = points_of_bary(mesh, e, np.tile(unit, (2, 1)))
            lam0 = bary_of_points(mesh, e, x0)
            np.testing.assert_allclose(lam0, np.tile(unit, (2, 1)), atol=1e-12)
        # finite step along each axis reproduces the stored gradient
        step = 1e-6
        base = mesh.verts_phys(e)[:, 0] + mesh.h * 0.1
        lam_b = bary_of_points(mesh, e, base)
        for d in range(3):
            shift = base.copy()
            shift[:, d] += step
            dlam = (bary_of_points(mesh, e, shift) - lam_b) / step
            np.testing.assert_allclose(dlam, mesh.bary_grad(e)[:, :, d], atol=1e-6)


def dof_oracle(mesh):
    """Independent dof enumeration: unique fine-lattice nodes via python sets."""
    k = mesh.k
    mi = [
        m
        for m in itertools.product(range(k + 1), repeat=4)
        if sum(m) == k
    ]
    nodes = set()
    elem_nodes = []
    for verts in mesh.verts_lattice(slice(None)).tolist():
        row = []
        for m in mi:
            node = tuple(
                sum(m[j] * verts[j][d] for j in range(4)) for d in range(3)
            )
            nodes.add(node)
            row.append(node)
        elem_nodes.append(row)
    return sorted(nodes), elem_nodes


class TestDofNumbering:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_lattice_oracle(self, k):
        _, mesh = torus_mesh(4, k)
        nodes, elem_nodes = dof_oracle(mesh)
        assert mesh.ndofs == len(nodes)
        index = {node: i for i, node in enumerate(nodes)}
        assert np.array_equal(dof_lattice(mesh), np.array(nodes))
        for e, row in enumerate(elem_nodes):
            got = set(mesh.elem_dofs[e].tolist())
            assert got == {index[n] for n in row}
            assert len(got) == len(row)  # nodes inside one element are distinct

    def test_dof_points_sit_on_the_fine_lattice(self):
        _, mesh = torus_mesh(4, 3)
        np.testing.assert_allclose(
            mesh.dof_points,
            mesh.params.lo + mesh.h * dof_lattice(mesh) / mesh.k,
            atol=0,
        )

    def test_dof_index_round_trip(self):
        _, mesh = torus_mesh(4, 2)
        idx = dof_index_of(mesh, dof_lattice(mesh))
        assert np.array_equal(idx, np.arange(mesh.ndofs))

    def test_unknown_lattice_point_raises(self):
        _, mesh = torus_mesh(4, 2)
        with pytest.raises(KeyError, match="not an active dof"):
            dof_index_of(mesh, [(0, 0, 0)])  # box corner, far from the surface

    def test_dof_count_matches_simplex_dimension(self):
        for k in (1, 2, 3):
            _, mesh = torus_mesh(4, k)
            nb = (k + 1) * (k + 2) * (k + 3) // 6
            assert mesh.elem_dofs.shape == (mesh.nelems, nb)

    @pytest.mark.parametrize("n, k", [(64, 1), (32, 3)])
    def test_build_peaks_within_a_small_multiple_of_what_it_keeps(self, n, k):
        """The build peaks at most 2.75 times what it keeps above it: 2.23 at torus k=1 n=64, 2.16 at k=3 n=32.

        The dof keys are the vertices' keys times the multi-indices; with
        an (E, NB, 3) node array formed first the ratios were 3.15 and 3.45.
        What remains is np.unique's sort and inverse.
        """
        ls = Torus()
        kept, above = kept_and_peak(lambda: ActiveMesh.build(MeshParams(n), ls, k))
        assert above <= 2.75 * kept, f"{above / 2**20:.2f} MiB above the {kept / 2**20:.2f} MiB kept"


class TestNodePatches:
    def test_patch_equals_membership_oracle(self):
        _, mesh = torus_mesh(4, 2)
        member = [set() for _ in range(mesh.ndofs)]
        for e in range(mesh.nelems):
            for d in mesh.elem_dofs[e]:
                member[d].add(e)
        for dof in range(mesh.ndofs):
            assert set(node_patch(mesh, dof).tolist()) == member[dof]
        assert np.array_equal(
            mesh.patch_counts(), np.array([len(s) for s in member])
        )

    def test_vertex_patch_matches_lattice_incidence(self):
        """For k=1 every dof is a grid vertex; its patch is the incident elements."""
        _, mesh = torus_mesh(4, 1)
        lattice = dof_lattice(mesh)
        for dof in range(0, mesh.ndofs, 7):
            vert = tuple(lattice[dof])
            incident = {
                e
                for e in range(mesh.nelems)
                if vert in {tuple(v) for v in mesh.verts_lattice([e])[0].tolist()}
            }
            assert set(node_patch(mesh, dof).tolist()) == incident

    def test_interior_node_patch_is_a_singleton(self):
        """The k=4 barycenter node belongs to exactly one element."""
        _, mesh = torus_mesh(4, 4)
        interior = mesh.verts_lattice(slice(None)).sum(axis=1)  # multi-index (1,1,1,1)
        for e in (0, mesh.nelems // 2):
            dof = int(dof_index_of(mesh, [interior[e]])[0])
            assert node_patch(mesh, dof).tolist() == [e]

    def test_bad_dof_index_raises(self):
        _, mesh = torus_mesh(4, 1)
        with pytest.raises(KeyError):
            node_patch(mesh, -1)
        with pytest.raises(KeyError):
            node_patch(mesh, mesh.ndofs)


def facet_oracle(mesh):
    """Face pairing recomputed from sets of physical vertices."""
    faces = {}
    local = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    for e, verts in enumerate(mesh.verts_phys(slice(None)).tolist()):
        for loc in local:
            key = frozenset(tuple(verts[j]) for j in loc)
            faces.setdefault(key, []).append(e)
    return {
        key: tuple(sorted(owners)) for key, owners in faces.items() if len(owners) == 2
    }


class TestFacets:
    def test_pairing_matches_brute_force(self):
        _, mesh = torus_mesh(5, 1)
        oracle = facet_oracle(mesh)
        fs = mesh.facets
        assert fs.nfacets == len(fs) == len(oracle)
        got = {
            frozenset(map(tuple, tri)): tuple(pair)
            for tri, pair in zip(facet_triangles(fs).tolist(), fs.elems.tolist())
        }
        assert got == oracle

    @pytest.mark.parametrize("surface", ["torus", "plane"])
    def test_pairing_and_order_match_unique_rows(self, surface, rng):
        """One lexsort gives the facets of np.unique(keys, axis=0), in its order, so the ghost penalty's S stays bit-identical.

        The triangles, whole and for a random subset of facets, are bit for
        bit those that FacetSet stored, lo + h * the lower element's face.
        """
        if surface == "torus":
            _, mesh = torus_mesh(24, 1)
        else:
            mesh = ActiveMesh.build(MeshParams(12), Plane((0.3, -0.2, 0.9), 0.17), 1)
        elems, tri_lattice = facet_pairs_unique_rows(mesh)
        fs = FacetSet(mesh)
        assert len(fs) > 1000
        np.testing.assert_array_equal(fs.elems, elems)
        tri_points = mesh.params.lo + mesh.h * tri_lattice
        np.testing.assert_array_equal(facet_triangles(fs), tri_points)
        pick = rng.integers(0, len(fs), size=300)
        np.testing.assert_array_equal(facet_triangles(fs, pick), tri_points[pick])

    def test_no_face_shared_by_more_than_two(self):
        _, mesh = torus_mesh(5, 1)
        FacetSet(mesh)  # would raise MeshError otherwise

    def test_normals_are_unit_and_orthogonal_to_the_face(self):
        _, mesh = torus_mesh(5, 1)
        fs = mesh.facets
        normal = fs.geometry()[1]
        np.testing.assert_allclose(np.linalg.norm(normal, axis=1), 1.0, atol=1e-13)
        p = facet_triangles(fs)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        np.testing.assert_allclose(np.einsum("fi,fi->f", normal, e1), 0.0, atol=1e-13)
        np.testing.assert_allclose(np.einsum("fi,fi->f", normal, e2), 0.0, atol=1e-13)

    def test_normals_point_from_low_to_high_element(self):
        _, mesh = torus_mesh(5, 1)
        fs = mesh.facets
        cent = mesh.verts_phys(slice(None)).mean(axis=1)
        d = cent[fs.elems[:, 1]] - cent[fs.elems[:, 0]]
        assert np.all(np.einsum("fi,fi->f", fs.geometry()[1], d) > 0)

    @pytest.mark.parametrize("surface", ["torus", "plane"])
    def test_geometry_of_any_facets_is_the_stored_geometry_to_the_bit(self, surface, rng):
        """Areas and normals of every facet, of ragged chunks and of random subsets are the bytes FacetSet stored, chunk by chunk."""
        if surface == "torus":
            _, mesh = torus_mesh(24, 1)
        else:
            mesh = ActiveMesh.build(MeshParams(12), Plane((0.3, -0.2, 0.9), 0.17), 1)
        fs = mesh.facets
        area, normal = facet_geometry_oracle(mesh)
        picks = [slice(None), slice(7, 7 + 7 * 31), rng.integers(0, len(fs), size=300), rng.permutation(len(fs))[:777]]
        for pick in picks:
            got = fs.geometry(pick)
            for a, b in zip(got, (area[pick], normal[pick])):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_areas_match_herons_formula(self):
        _, mesh = torus_mesh(5, 1)
        fs = mesh.facets
        p = facet_triangles(fs)
        a = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        b = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
        c = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
        s = 0.5 * (a + b + c)
        heron = np.sqrt(s * (s - a) * (s - b) * (s - c))
        np.testing.assert_allclose(fs.geometry()[0], heron, rtol=1e-10)

    def test_facets_keep_their_elements_and_face_only(self):
        """At torus k=1 n=64 a FacetSet keeps 9 bytes per facet: its two int32 elements and a uint8 face.

        Stored areas and normals would add 32, int64 elements 8, a (F, 3, 3)
        float64 array of triangles 72.
        """
        _, mesh = torus_mesh(64, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fs = FacetSet(mesh)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 12 * len(fs), f"{kept / len(fs):.1f} B per facet"

    def test_face_vertices_belong_to_both_elements(self):
        _, mesh = torus_mesh(5, 1)
        fs = mesh.facets
        verts = mesh.verts_phys(slice(None))
        for tri, (lo, hi) in zip(facet_triangles(fs).tolist(), fs.elems.tolist()):
            tri_set = {tuple(v) for v in tri}
            for e in (lo, hi):
                assert tri_set <= {tuple(v) for v in verts[e].tolist()}
