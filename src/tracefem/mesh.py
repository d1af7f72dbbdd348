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

import numpy as np

from .reference import ReferenceElement

ZERO_SHIFT = 1e-14  # exact-zero vertex values are moved to +ZERO_SHIFT*h


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

    def __init__(self, n: int, box=None):
        if box is None:
            from .levelset import DEFAULT_BOX

            box = DEFAULT_BOX
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

    def refined(self, factor: int = 2) -> "MeshParams":
        return MeshParams(self.n * factor, (self.lo, self.hi))


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
        self.verts_lattice = self.cube[:, None, :] + KUHN_VERTS[self.tet]  # (E, 4, 3)
        self._build_dofs()
        self._build_affine()
        self._facets = None
        self._patch = None

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

    @classmethod
    def from_vertex_values(cls, params: MeshParams, vertex_values: np.ndarray, k: int) -> "ActiveMesh":
        """Enumerate cut elements from a full (n+1)^3 vertex-value grid."""
        n = params.n
        v = np.array(vertex_values, dtype=np.float64)
        if v.shape != (n + 1, n + 1, n + 1):
            raise ValueError("vertex value grid must have shape (n+1,)*3")
        if not np.all(np.isfinite(v)):
            raise MeshError("vertex values must be finite")
        v[v == 0.0] = ZERO_SHIFT * params.h
        return cls(params, k, *_cut_elements(v[:, :, kz] for kz in range(n + 1)))

    def _build_dofs(self):
        k, n = self.k, self.params.n
        alpha = self.ref.multi_indices  # (NB, 4)
        nodes = np.einsum("bm,emj->ebj", alpha, self.verts_lattice)  # (E, NB, 3) fine lattice
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

    def _build_affine(self):
        h = self.params.h
        origin = self.params.lo + h * self.cube  # (E, 3)
        A = SHAPE_BARY_A[self.tet]  # (E, 4, 3)
        self.bary_grad = A / h
        self.bary_off = SHAPE_BARY_B[self.tet] - np.einsum("emi,ei->em", A, origin) / h
        self.verts_phys = self.params.lo + h * self.verts_lattice
        self.elem_volume = h**3 / 6.0

    # -- lookups -----------------------------------------------------

    @property
    def h(self) -> float:
        return self.params.h

    def bary_of_points(self, elems, x) -> np.ndarray:
        """Barycentric coordinates of physical points wrt the given elements."""
        return np.einsum("pmi,pi->pm", self.bary_grad[elems], x) + self.bary_off[elems]

    def points_of_bary(self, elems, lam) -> np.ndarray:
        return np.einsum("pm,pmi->pi", lam, self.verts_phys[elems])

    def dof_index_of(self, lattice) -> np.ndarray:
        lattice = np.atleast_2d(np.asarray(lattice, dtype=np.int64))
        m = self.k * self.params.n + 1
        keys = (lattice[:, 0] * m + lattice[:, 1]) * m + lattice[:, 2]
        idx = np.searchsorted(self.dof_keys, keys)
        bad = (idx >= self.ndofs) | (self.dof_keys[np.minimum(idx, self.ndofs - 1)] != keys)
        if np.any(bad):
            raise KeyError(f"lattice point {lattice[np.argmax(bad)]} is not an active dof")
        return idx

    def _build_patches(self):
        flat = self.elem_dofs.ravel()
        order = np.argsort(flat, kind="stable")
        elems = np.repeat(np.arange(self.nelems, dtype=np.int64), self.elem_dofs.shape[1])[order]
        counts = np.bincount(flat, minlength=self.ndofs)
        ptr = np.zeros(self.ndofs + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        self._patch = (ptr, elems)

    def node_patch(self, dof: int) -> np.ndarray:
        """Active elements whose closure contains the dof node."""
        if not 0 <= dof < self.ndofs:
            raise KeyError(f"unknown dof index {dof}")
        if self._patch is None:
            self._build_patches()
        ptr, elems = self._patch
        return elems[ptr[dof] : ptr[dof + 1]]

    def patch_counts(self) -> np.ndarray:
        if self._patch is None:
            self._build_patches()
        ptr, _ = self._patch
        return np.diff(ptr)

    @property
    def facets(self) -> "FacetSet":
        if self._facets is None:
            self._facets = FacetSet(self)
        return self._facets


_FACE_LOCAL = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


class FacetSet:
    """Interior facets of the active mesh (triangles shared by two elements)."""

    def __init__(self, mesh: ActiveMesh):
        tris = mesh.verts_lattice[:, _FACE_LOCAL, :]  # (E, 4, 3, 3)
        E = mesh.nelems
        flat = tris.reshape(E * 4, 3, 3)
        keys = np.sort(
            (flat[:, :, 0] * (mesh.params.n + 1) + flat[:, :, 1]) * (mesh.params.n + 1)
            + flat[:, :, 2],
            axis=1,
        )
        uniq, inv, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
        if counts.max(initial=0) > 2:
            raise MeshError("nonconforming mesh: a facet is shared by more than two elements")
        owner = np.repeat(np.arange(E, dtype=np.int64), 4)
        order = np.argsort(inv, kind="stable")
        shared = counts == 2
        starts = np.zeros(len(uniq) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        first = order[starts[:-1][shared]]
        second = order[starts[:-1][shared] + 1]
        e0, e1 = owner[first], owner[second]
        lo = np.minimum(e0, e1)
        hi = np.maximum(e0, e1)
        self.mesh = mesh
        self.elems = np.stack([lo, hi], axis=-1)
        # recover the vertex triple of each shared face from the lower element
        face_of_lo = np.where(e0 <= e1, first % 4, second % 4)
        self.tri_lattice = tris.reshape(E, 4, 3, 3)[lo, face_of_lo]
        p = mesh.params.lo + mesh.params.h * self.tri_lattice
        self.tri_points = p
        nvec = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        nn = np.linalg.norm(nvec, axis=-1)
        self.area = 0.5 * nn
        normal = nvec / nn[:, None]
        cent = mesh.verts_phys.mean(axis=1)
        d = cent[hi] - cent[lo]
        flip = np.einsum("fi,fi->f", normal, d) < 0.0
        normal[flip] *= -1.0
        self.normal = normal
        self.nfacets = len(self.elems)

    def __len__(self) -> int:
        return self.nfacets


def enumerate_active(params: MeshParams, vertex_values: np.ndarray, k: int = 1) -> ActiveMesh:
    """Public entry: active mesh from a full vertex-value grid."""
    return ActiveMesh.from_vertex_values(params, vertex_values, k)
