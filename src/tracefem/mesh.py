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

from . import backends
from .levelset import DEFAULT_BOX

MAX_DEGREE = 5
ZERO_SHIFT = 1e-14  # exact-zero vertex values are moved to +ZERO_SHIFT*h

# One budget for every streamed loop.  Theta's build, the interface cut,
# Pattern's offset search, both passes of the ghost penalty, every use of
# a lifted rule and the VTK corners run over chunks of consecutive cells
# from element_chunks, and nothing a chunk makes outlives it, so their
# memory does not grow with the mesh.  A chunk holds at most
# CHUNK_DOUBLES doubles (2 MiB) of what its cells allocate, as its loop
# charges them: 4 * 24 an element of the cut (two triangles' three
# corners in four barycentrics) and a facet of the ghost penalty (both
# elements' (4, 3) gradients), 4 nb^2 a block of Pattern, 16 NB^2 an
# element of Theta (NB nodes of NB coefficients), 4 * 12 an element of
# Theta's linear-cut normals (its (4, 3) gradients) and a triangle of the
# VTK corners (three corners in four barycentrics), and a lifted rule the
# doubles a point that its chunks were measured to allocate (see
# LiftedRule).  Outside the
# lifted rules the fullest chunks peak at 0.2-1.07 times their charge,
# 2.04 MiB at most (PYTHONPATH=src python tests/test_assembly.py prints
# every loop's table).  Theta keeps 16 NB^2: chunks of NB^2 took torus
# k=3 n=20 from 0.084 to 0.100 s (k=2 n=32 0.093 -> 0.126, k=4 n=16 0.160
# -> 0.191; best of three, one BLAS thread) and changed Theta's bits at
# sphere k=5 n=8.  A fixed 16,384 points a chunk, 2.6-21 MiB of (points,
# NB) arrays at k = 3-5, took build_theta at torus k=3 n=20 to 428 ms and
# 126,162 minor page faults, against 177 ms and 478 at this budget.
CHUNK_DOUBLES = 2**18


def element_chunks(ncells: int, per_cell: int):
    """Slices of consecutive cells with at most CHUNK_DOUBLES doubles, per_cell per cell (at least one cell)."""
    step = max(1, CHUNK_DOUBLES // per_cell)
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
    """Per-shape barycentric gradients (6, 4, 3) in unit-cube coordinates."""
    A = np.zeros((6, 4, 3))
    for t in range(6):
        M = np.hstack([np.ones((4, 1)), KUHN_VERTS[t].astype(float)])
        A[t] = np.rint(np.linalg.inv(M))[1:4].T  # entries are small integers (det = +/-1)
    return A


SHAPE_BARY_A = _shape_bary()


class MeshParams:
    """Uniform cubic grid of n^3 cells over DEFAULT_BOX."""

    def __init__(self, n: int):
        if int(n) < 1:
            raise ValueError("n must be a positive integer")
        self.n = int(n)
        self.lo, self.hi = DEFAULT_BOX
        self.h = float((self.hi - self.lo)[0] / self.n)


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
    """Active (cut) part of the background mesh for a fixed degree k = 1..MAX_DEGREE, nb basis functions per element."""

    def __init__(self, params: MeshParams, k: int, cube: np.ndarray, tet: np.ndarray, vertex_phi: np.ndarray):
        if not 1 <= k <= MAX_DEGREE:
            raise ValueError(f"polynomial degree must be in 1..{MAX_DEGREE}, got {k}")
        if len(cube) == 0:
            raise MeshError("surface does not intersect mesh")
        self.params = params
        self.k = int(k)
        self.nb = len(backends.multi_indices(self.k))
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
        m = k * n + 1
        lat = self.verts_lattice(slice(None))
        # node b sits at sum_j mi[b, j] v_j on the fine lattice, and its key is linear
        # in the lattice point: the vertices' keys times mi, with no (E, NB, 3) nodes
        keys = ((lat[:, :, 0] * m + lat[:, :, 1]) * m + lat[:, :, 2]) @ backends.multi_indices(k).T
        del lat
        dof_keys, inv = np.unique(keys, return_inverse=True)
        self.elem_dofs = inv.reshape(keys.shape).astype(np.int64)
        self.ndofs = len(dof_keys)
        lat = np.empty((self.ndofs, 3), dtype=np.int64)
        lat[:, 2] = dof_keys % m
        rest = dof_keys // m
        lat[:, 1] = rest % m
        lat[:, 0] = rest // m
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
    normals of some facets on demand.  It holds its mesh by a weak
    reference: the mesh caches its FacetSet, and a strong one back would
    make a cycle that only the garbage collector frees.
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
