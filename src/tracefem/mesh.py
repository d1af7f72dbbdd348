"""Implicit structured tetrahedral background mesh restricted to cut elements.

A uniform n^3 cube grid over the bounding box is subdivided into six
tetrahedra per cube (one per permutation of the axes, all sharing the
main cube diagonal), which is conforming when every cube uses the same
orientation.  Only elements cut by the zero level of the vertex
interpolant are enumerated and stored; degrees of freedom for P^k live
on the refined lattice with spacing h/k, numbered lexicographically, so
the whole mesh is index arithmetic plus the active-set arrays.
"""

from __future__ import annotations

import weakref

import numpy as np

from .levelset import DEFAULT_BOX
from .reference import ReferenceElement

ZERO_SHIFT = 1e-14  # exact-zero vertex values are moved to +ZERO_SHIFT*h

# Theta's build, every use of a lifted rule (the assembly, the errors, the
# normal deviation, the VTK export) and the offset search of
# assembly.Pattern stream in chunks of cells, and nothing a chunk makes
# outlives it, so their memory does not grow with the mesh.  A chunk of
# Theta's build, of Pattern's search, of the interface cut, of the facets
# or of the VTK corners holds at most CHUNK_VALUES values per (points, NB)
# array: 4 NB^2 per element of Theta (see build_theta), nb^2 per block of
# Pattern.  The bound is on values, not points, because every per-point
# array of a chunk has NB (or 3 NB) entries per point: a fixed 16,384
# points made them 2.6-7.5 MiB at k = 3 and 21 MiB at k = 5, each mapped
# afresh and faulted in again per chunk.  Medians of three fresh
# processes, torus k=3 n=20 (k=5 n=16): build_theta 428 -> 177 ms (1,708
# -> 797 ms) with 126,162 -> 478 minor page faults (212,566 -> 1,739).
# Smaller chunks only cost time there: CHUNK_VALUES = 2**14 takes
# build_theta at torus k=3 n=20 from 0.125 to 0.198 s (fastest of three).
# A lifted rule's chunk counts the doubles its points allocate instead,
# against its own budget, assembly.CHUNK_DOUBLES (2 MiB): a charge per
# point for the rule and the integrand its chunks feed, measured (see
# LiftedRule), so that budget bounds what every chunk allocates.
CHUNK_VALUES = 2**16


def element_chunks(ncells: int, per_cell: int, budget: int | None = None):
    """Slices of consecutive cells with at most budget values (CHUNK_VALUES by default), per_cell per cell (at least one cell)."""
    step = max(1, (CHUNK_VALUES if budget is None else budget) // per_cell)
    return [slice(s, min(s + step, ncells)) for s in range(0, ncells, step)]


class MeshError(RuntimeError):
    pass


def _kuhn_table():
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    verts = np.zeros((6, 4, 3), dtype=np.int64)
    for t, p in enumerate(perms):
        v = np.zeros((4, 3), dtype=np.int64)
        v[1, p[0]] = 1
        v[2, p[0]] = 1
        v[2, p[1]] = 1
        v[3] = 1
        d = np.linalg.det(np.vstack([v[1] - v[0], v[2] - v[0], v[3] - v[0]]).astype(float))
        if d < 0:  # reorder odd permutations so every element is positively oriented
            v[[1, 2]] = v[[2, 1]]
        verts[t] = v
    return verts


KUHN_VERTS = _kuhn_table()


def _shape_bary():
    """Per-shape affine barycentric transforms in unit-cube coordinates."""
    A = np.zeros((6, 4, 3))
    b = np.zeros((6, 4))
    for t in range(6):
        M = np.hstack([np.ones((4, 1)), KUHN_VERTS[t].astype(float)])
        C = np.linalg.inv(M)
        C = np.rint(C)  # entries are small integers (det = +/-1)
        b[t] = C[0]
        A[t] = C[1:4].T
    return A, b


SHAPE_BARY_A, SHAPE_BARY_B = _shape_bary()


class MeshParams:
    """Uniform cubic grid of n^3 cells over an axis-aligned box."""

    def __init__(self, n: int, box=DEFAULT_BOX):
        self.lo = np.asarray(box[0], dtype=np.float64)
        self.hi = np.asarray(box[1], dtype=np.float64)
        if int(n) < 1:
            raise ValueError("n must be a positive integer")
        self.n = int(n)
        ext = self.hi - self.lo
        if np.any(ext <= 0):
            raise ValueError("box must have positive extent")
        h = ext / self.n
        if not np.allclose(h, h[0], rtol=1e-12, atol=0.0):
            raise ValueError("cells must be cubic; box extents must match")
        self.h = float(h[0])


def _corner_index(off):
    return off[:, 0] * 4 + off[:, 1] * 2 + off[:, 2]


TET_CORNERS = np.stack([_corner_index(KUHN_VERTS[t]) for t in range(6)])  # (6, 4)


def _cut_elements(planes):
    """Cut tetrahedra from the vertex-value planes z = 0..n, given bottom-up.

    Each plane is an (n+1, n+1) array without exact zeros.  Returns
    (cube (C, 3), tet (C,), vertex_phi (C, 4)) for every element with a
    sign change among its vertex values.
    """
    cubes, tets, vphi = [], [], []
    planes = iter(planes)
    below = next(planes)
    for kz, above in enumerate(planes):
        # corner (x, y, z) offset of the cube at row 4x + 2y + z, as in _corner_index
        stack = np.stack([
            below[:-1, :-1], above[:-1, :-1], below[:-1, 1:], above[:-1, 1:],
            below[1:, :-1], above[1:, :-1], below[1:, 1:], above[1:, 1:],
        ])
        ii, jj = np.nonzero((stack.min(axis=0) < 0.0) & (stack.max(axis=0) > 0.0))
        below = above
        if len(ii) == 0:
            continue
        tv = stack[:, ii, jj].T[:, TET_CORNERS]  # (C, 6, 4)
        ci, ti = np.nonzero((tv.min(axis=2) < 0.0) & (tv.max(axis=2) > 0.0))
        cubes.append(np.stack([ii[ci], jj[ci], np.full(len(ci), kz, dtype=np.int64)], axis=-1))
        tets.append(ti.astype(np.int64))
        vphi.append(tv[ci, ti])
    if not cubes:
        raise MeshError("surface does not intersect mesh")
    return np.concatenate(cubes), np.concatenate(tets), np.concatenate(vphi)


class ActiveMesh:
    """Active (cut) part of the background mesh for a fixed degree k."""

    def __init__(self, params: MeshParams, k: int, cube: np.ndarray, tet: np.ndarray, vertex_phi: np.ndarray):
        if len(cube) == 0:
            raise MeshError("surface does not intersect mesh")
        self.params = params
        self.k = int(k)
        self.ref = ReferenceElement(self.k)
        order = np.lexsort((tet, cube[:, 2], cube[:, 1], cube[:, 0]))
        self.cube = np.ascontiguousarray(cube[order])
        self.tet = np.ascontiguousarray(tet[order])
        self.vertex_phi = np.ascontiguousarray(vertex_phi[order])
        self.nelems = len(self.cube)
        self.elem_volume = self.h**3 / 6.0
        self._build_dofs()
        self._facets = None

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, params: MeshParams, levelset, k: int) -> "ActiveMesh":
        """Enumerate cut elements by slab-wise evaluation of the level set."""
        n = params.n
        ax = [np.linspace(params.lo[d], params.hi[d], n + 1) for d in range(3)]
        X, Y = np.meshgrid(ax[0], ax[1], indexing="ij")
        shift = ZERO_SHIFT * params.h

        def plane(kz):
            pts = np.stack([X.ravel(), Y.ravel(), np.full(X.size, ax[2][kz])], axis=-1)
            v = np.asarray(levelset.phi(pts), dtype=np.float64).reshape(n + 1, n + 1)
            if not np.all(np.isfinite(v)):
                raise MeshError("level set produced non-finite vertex values")
            v[v == 0.0] = shift
            return v

        return cls(params, k, *_cut_elements(plane(kz) for kz in range(n + 1)))

    def _build_dofs(self):
        k, n = self.k, self.params.n
        alpha = self.ref.multi_indices  # (NB, 4)
        nodes = np.einsum("bm,emj->ebj", alpha, self.verts_lattice(slice(None)))  # (E, NB, 3) fine lattice
        m = k * n + 1
        keys = (nodes[:, :, 0] * m + nodes[:, :, 1]) * m + nodes[:, :, 2]
        self.dof_keys, inv = np.unique(keys, return_inverse=True)
        self.elem_dofs = inv.reshape(keys.shape).astype(np.int64)
        self.ndofs = len(self.dof_keys)
        lat = np.empty((self.ndofs, 3), dtype=np.int64)
        lat[:, 2] = self.dof_keys % m
        rest = self.dof_keys // m
        lat[:, 1] = rest % m
        lat[:, 0] = rest // m
        self.dof_lattice = lat
        self.dof_points = self.params.lo + self.params.h * (lat / float(k))

    # -- lookups -----------------------------------------------------

    @property
    def h(self) -> float:
        return self.params.h

    def verts_lattice(self, elems) -> np.ndarray:
        """(E', 4, 3) lattice vertices of the given elements (an index array or a slice)."""
        return self.cube[elems][:, None, :] + KUHN_VERTS[self.tet[elems]]

    def vertex_ids(self, elems) -> np.ndarray:
        """(E', 4) int64 indices of the given elements' vertices in the (n+1)^3 grid, z fastest."""
        lat = self.verts_lattice(elems)
        m = self.params.n + 1
        return (lat[:, :, 0] * m + lat[:, :, 1]) * m + lat[:, :, 2]

    def verts_phys(self, elems) -> np.ndarray:
        """(E', 4, 3) physical vertices of the given elements."""
        return self.params.lo + self.params.h * self.verts_lattice(elems)

    def bary_grad(self, elems) -> np.ndarray:
        """(E', 4, 3) constant gradients of the barycentric coordinates of the given elements, one per Kuhn shape."""
        return (SHAPE_BARY_A / self.params.h)[self.tet[elems]]

    def bary_off(self, elems) -> np.ndarray:
        """(E', 4) barycentric coordinates of the origin: lam = bary_grad . x + bary_off."""
        h, tet = self.params.h, self.tet[elems]
        origin = self.params.lo + h * self.cube[elems]
        return SHAPE_BARY_B[tet] - np.einsum("emi,ei->em", SHAPE_BARY_A[tet], origin) / h

    def bary_of_points(self, elems, x) -> np.ndarray:
        """Barycentric coordinates of physical points wrt the given elements."""
        return np.einsum("pmi,pi->pm", self.bary_grad(elems), x) + self.bary_off(elems)

    def patch_counts(self) -> np.ndarray:
        """(ndofs,) the number of active elements around every dof node."""
        return np.bincount(self.elem_dofs.ravel(), minlength=self.ndofs)

    @property
    def facets(self) -> "FacetSet":
        if self._facets is None:
            self._facets = FacetSet(self)
        return self._facets


_FACE_LOCAL = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])  # row m: the face opposite vertex m


class FacetSet:
    """Interior facets of the active mesh (triangles shared by two elements).

    It keeps the two elements of every facet, elems (F, 2) int32, lower
    first, and face (F,) uint8, the lower element's local vertex opposite
    the facet: 9 bytes a facet.  geometry() forms the areas and unit
    normals of some facets and triangles() their vertices, on demand.  It
    holds its mesh by a weak reference: the mesh caches its FacetSet, and
    a strong one back would make a cycle that only the garbage collector
    frees.
    """

    def __init__(self, mesh: ActiveMesh):
        keys = np.sort(mesh.vertex_ids(slice(None))[:, _FACE_LOCAL].reshape(-1, 3), axis=1)
        # faces in lexicographic order of their keys, equal faces in face order,
        # as np.unique(keys, axis=0) groups them: one stable sort, 16-21 ms
        # against unique's 126-178 ms at torus k=1 n=64
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate([[True], (keys[1:] != keys[:-1]).any(axis=1)]))
        counts = np.diff(starts, append=len(keys))
        if counts.max(initial=0) > 2:
            raise MeshError("nonconforming mesh: a facet is shared by more than two elements")
        pairs = starts[counts == 2]
        first = order[pairs]  # the shared face of the lower element
        self._mesh = weakref.ref(mesh)
        self.elems = np.stack([first // 4, order[pairs + 1] // 4], axis=-1).astype(np.int32)
        self.face = (first % 4).astype(np.uint8)
        self.nfacets = len(self.elems)

    def __len__(self) -> int:
        return self.nfacets

    def geometry(self, facets=slice(None)):
        """Areas (F',) and unit normals (F', 3) of the given facets, each normal pointing from the lower element into the upper one."""
        mesh = self._mesh()
        lo, hi = self.elems[facets].T
        verts = mesh.verts_phys(lo)
        p = verts[np.arange(len(lo))[:, None], _FACE_LOCAL[self.face[facets]]]
        nvec = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        nn = np.linalg.norm(nvec, axis=-1)
        normal = nvec / nn[:, None]
        d = mesh.verts_phys(hi).mean(axis=1) - verts.mean(axis=1)
        flip = np.einsum("fi,fi->f", normal, d) < 0.0
        normal[flip] *= -1.0
        return 0.5 * nn, normal

    def triangles(self, facets=slice(None)) -> np.ndarray:
        """(F', 3, 3) physical vertices of the given facets, in the lower element's local order."""
        lo = self.elems[facets, 0]
        return self._mesh().verts_phys(lo)[np.arange(len(lo))[:, None], _FACE_LOCAL[self.face[facets]]]
