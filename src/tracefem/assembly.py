"""Assembly of the stiffness form, stabilizations, constraint and load.

All surface integrals are evaluated on the flat interface triangles of
the cut elements and pushed onto the deformed surface through the
isoparametric map: with J = DTheta at a quadrature point, physical
gradients pick up J^-T, the surface measure picks up
det(J) * |J^-T n-hat|, and tangential projection uses the deformed unit
normal.  Volume stabilizations integrate over the deformed cut elements
with the det(J) factor alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import backends
from .cutquad import extract_cuts, tet_rule, triangle_rule
from .mapping import IsoMapping
from .mesh import ActiveMesh
from .reference import DiscreteLevelSet

CHUNK_ELEMS = 2048

VARIANTS = (
    "none",
    "ghost_penalty",
    "full_gradient_surface",
    "full_gradient_volume",
    "normal_volume",
)


@dataclass(frozen=True)
class StabConfig:
    """Stabilization choice and its mesh-size scaling.

    rho is one of 'h_inv' (1/h), 'h_times_k4' (k^4 * h), a
    ('custom', prefactor, exponent) triple meaning prefactor * h^exponent,
    or None for the variant default (1 for ghost_penalty, h for
    full_gradient_volume, 1/h for normal_volume).
    """

    variant: str = "normal_volume"
    rho: object = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown stabilization variant {self.variant!r}")
        if isinstance(self.rho, str) and self.rho not in ("h_inv", "h_times_k4"):
            raise ValueError(f"unknown rho scaling {self.rho!r}")
        if isinstance(self.rho, tuple):
            if len(self.rho) != 3 or self.rho[0] != "custom":
                raise ValueError("custom rho must be ('custom', prefactor, exponent)")
            if self.variant == "normal_volume" and not -1.0 <= float(self.rho[2]) <= 1.0:
                raise ValueError(
                    "normal_volume scaling must stay between h and 1/h (exponent in [-1, 1])"
                )

    def resolve_rho(self, h: float, k: int) -> float:
        rho = self.rho
        if rho is None:
            rho = {
                "none": ("custom", 0.0, 0.0),
                "ghost_penalty": ("custom", 1.0, 0.0),
                "full_gradient_surface": ("custom", 1.0, 0.0),
                "full_gradient_volume": ("custom", 1.0, 1.0),
                "normal_volume": "h_inv",
            }[self.variant]
        if rho == "h_inv":
            return 1.0 / h
        if rho == "h_times_k4":
            return float(k**4) * h
        _, pre, expo = rho
        return float(pre) * h ** float(expo)


class LiftedRule:
    """Quadrature points of the active elements pushed through Theta.

    A rule is built from groups (elems (E,), lam, wref (E, q)), lam being
    per element (E, q, 4) or shared by the group's elements (q, 4).  Each
    group is lifted in one call and its points are stored element-major
    and consecutively, so local matrices reduce to one batched contraction
    per group.  The rules differ only in their points and in the measure
    factor of their weights (_weights).
    """

    def __init__(self, mesh, mapping, groups):
        self.mesh = mesh
        self.groups = []          # list of (elem_ids (E,), point slice, q)
        lifts, w, start = [], [], 0
        for elems, lam, wref in groups:
            lift = mapping.lift(elems, lam)
            lifts.append(lift)
            w.append(self._weights(wref, lift))
            E, q = wref.shape
            self.groups.append((elems, slice(start, start + E * q), q))
            start += E * q
        self.elems = np.concatenate([np.repeat(e, q) for e, _, q in self.groups])  # (P,)
        self.vals = _points([l.vals for l in lifts])     # (P, NB) basis values
        self.grads = _points([l.grads for l in lifts])   # (P, NB, 3) deformed physical gradients
        self.nh = _points([l.nh for l in lifts])         # (P, 3) deformed unit normals
        self.y = _points([l.y for l in lifts])           # (P, 3) lifted points
        self.w = _points(w)                              # (P,) lifted weights

    def accumulate(self, vec, out_triplets):
        """Sum w * vec.vec' local matrices into the triplet lists, per group."""
        kern = backends.active()
        for elems, slc, q in self.groups:
            E = len(elems)
            v = vec[slc].reshape(E, q, *vec.shape[1:])
            w = self.w[slc].reshape(E, q)
            for s in range(0, E, CHUNK_ELEMS):
                e = min(s + CHUNK_ELEMS, E)
                local = kern.accumulate_sym(v[s:e], w[s:e])
                _scatter(self.mesh.elem_dofs[elems[s:e]], local, out_triplets)

    def moments(self, g):
        """Vector of the integrals of g * basis_i over the rule, g given per point."""
        out = np.zeros(self.mesh.ndofs)
        np.add.at(out, self.mesh.elem_dofs[self.elems].ravel(), (self.vals * g[:, None]).ravel())
        return out


def _points(parts):
    """Group arrays (E, q, ...) as one point array (P, ...); one group stays a view."""
    return _join([a.reshape(-1, *a.shape[2:]) for a in parts])


def _join(arrays):
    """Concatenation that does not copy a single array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class SurfaceData(LiftedRule):
    """The lifted interface rule.

    Points are grouped by the number of interface triangles per element
    (one or two), so each group has a uniform point count.
    """

    @classmethod
    def build(cls, mesh: ActiveMesh, dls: DiscreteLevelSet, mapping: IsoMapping, degree=None):
        """Rule exact to `degree` on each triangle; by default 2k - 2, the assembly degree."""
        if degree is None:
            degree = max(0, 2 * mesh.k - 2)
        tri_elem, tri_bary, tri_area = extract_cuts(dls.mesh.vertex_phi, mesh.verts_phys)
        lam, w = triangle_rule(degree)
        pts = np.einsum("qc,tcm->tqm", lam, tri_bary)      # (T, q, 4)
        wref = tri_area[:, None] * w[None, :]               # (T, q)

        counts = np.bincount(tri_elem, minlength=mesh.nelems)
        groups = []
        # triangles are sorted by element, so per-element blocks are contiguous
        for ntri in (1, 2):
            elems = np.flatnonzero(counts == ntri)
            if len(elems):
                sel = counts[tri_elem] == ntri
                E = len(elems)
                groups.append((elems, pts[sel].reshape(E, -1, 4), wref[sel].reshape(E, -1)))
        return cls(mesh, mapping, groups)

    @staticmethod
    def _weights(wref, lift):
        return wref * lift.det * lift.nn


class VolumeData(LiftedRule):
    """The deformed-element volume rule: one group, the same reference points in every element."""

    @classmethod
    def build(cls, mesh: ActiveMesh, mapping: IsoMapping, degree: int):
        lam, w = tet_rule(degree)
        E = mesh.nelems
        wref = np.broadcast_to(w * mesh.elem_volume, (E, len(w)))
        return cls(mesh, mapping, [(np.arange(E, dtype=np.int64), lam, wref)])

    @staticmethod
    def _weights(wref, lift):
        return wref * lift.det


def _scatter(dofs, local, out_triplets):
    """Append the triplets of local matrices (E, nb, nb) on dof rows (E, nb)."""
    nb = dofs.shape[1]
    out_triplets[0].append(np.repeat(dofs, nb, axis=1).ravel())
    out_triplets[1].append(np.tile(dofs, (1, nb)).ravel())
    out_triplets[2].append(local.ravel())


def _to_csr(triplets, n):
    rows, cols, data = (_join(t) for t in triplets)
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _matrix(rule, vec):
    """CSR matrix of the sum over the rule of w * vec_i . vec_j."""
    trip = ([], [], [])
    rule.accumulate(vec, trip)
    return _to_csr(trip, rule.mesh.ndofs)


def _normal_derivatives(rule):
    """(P, NB, 1) derivatives of the basis along the deformed normal."""
    return np.einsum("pbi,pi->pb", rule.grads, rule.nh)[:, :, None]


def assemble_a(mesh, dls, mapping, degree=None, surf: SurfaceData | None = None):
    """Tangential stiffness matrix on the deformed surface (CSR)."""
    if surf is None:
        surf = SurfaceData.build(mesh, dls, mapping, degree)
    return _matrix(surf, surf.grads - _normal_derivatives(surf) * surf.nh[:, None, :])


def assemble_constraint(mesh, dls, mapping, degree=None, surf: SurfaceData | None = None):
    """Mean-value constraint vector c_i = integral of basis_i over the deformed surface."""
    if surf is None:
        surf = SurfaceData.build(mesh, dls, mapping, degree)
    return surf.moments(surf.w)


def assemble_rhs(mesh, dls, mapping, problem, c, degree=None, surf: SurfaceData | None = None):
    """Load vector for the extended right-hand side, projected to mean zero.

    The raw moments f_i = int f(y) basis_i ds are corrected by
    f -= (<f, e>/<c, e>) c with e the coefficient vector of the constant
    one, which places f in the range of the singular stiffness operator.
    """
    if surf is None:
        surf = SurfaceData.build(mesh, dls, mapping, degree)
    f = surf.moments(surf.w * problem.rhs(surf.y))
    f -= f.sum() / c.sum() * c  # pairwise sums: independent of the BLAS thread count
    return f


def assemble_s(mesh, dls, mapping, stab: StabConfig, surf: SurfaceData | None = None):
    """Stabilization matrix for the chosen variant (CSR; zero for 'none')."""
    k = mesh.k
    rho = stab.resolve_rho(mesh.h, k)
    if stab.variant == "none":
        return sp.csr_matrix((mesh.ndofs, mesh.ndofs))
    if stab.variant == "ghost_penalty":
        if k != 1:
            raise ValueError("ghost_penalty is unsupported for k > 1 (no higher-order theory)")
        return _assemble_ghost(mesh, rho)
    if stab.variant == "full_gradient_surface":
        if surf is None:
            surf = SurfaceData.build(mesh, dls, mapping)
        return _matrix(surf, _normal_derivatives(surf))
    vol = VolumeData.build(mesh, mapping, 2 * k)
    vol.w = vol.w * rho
    if stab.variant == "full_gradient_volume":
        return _matrix(vol, vol.grads)
    return _matrix(vol, _normal_derivatives(vol))  # normal_volume


def _assemble_ghost(mesh, rho):
    """Gradient-jump penalty over interior facets (piecewise-linear case).

    Gradients of P1 elements are constant, so each facet contributes
    rho * area(F) * [grad b_i . n_F][grad b_j . n_F] over the union of
    the two element dof sets.
    """
    fs = mesh.facets
    jumps, dofs = [], []
    for s, sign in ((0, 1.0), (1, -1.0)):
        elems = fs.elems[:, s]
        gn = np.einsum("fmi,fi->fm", mesh.bary_grad[elems], fs.normal)  # (F, 4)
        jumps.append(sign * gn)
        dofs.append(mesh.elem_dofs[elems])
    J = np.concatenate(jumps, axis=1)        # (F, 8)
    local = rho * fs.area[:, None, None] * J[:, :, None] * J[:, None, :]
    trip = ([], [], [])
    _scatter(np.concatenate(dofs, axis=1), local, trip)
    return _to_csr(trip, mesh.ndofs)


@dataclass
class AssembledSystem:
    """Stiffness-plus-stabilization operator with constraint and load."""

    S: sp.csr_matrix
    c: np.ndarray
    f: np.ndarray
    e: np.ndarray
    rho: float
    h: float
    k: int
    ndofs: int
    A: sp.csr_matrix = None
    S_stab: sp.csr_matrix = None

    @property
    def diag(self) -> np.ndarray:
        return self.S.diagonal()


def assemble_system(mesh, dls, mapping, problem, stab: StabConfig, degree=None) -> AssembledSystem:
    """One-stop assembly sharing the lifted surface rule across all pieces."""
    k = mesh.k
    surf = SurfaceData.build(mesh, dls, mapping, degree)
    A = assemble_a(mesh, dls, mapping, surf=surf)
    Sm = assemble_s(mesh, dls, mapping, stab, surf=surf)
    c = assemble_constraint(mesh, dls, mapping, surf=surf)
    f = assemble_rhs(mesh, dls, mapping, problem, c, surf=surf)
    S = (A + Sm).tocsr()
    return AssembledSystem(
        S=S,
        c=c,
        f=f,
        e=np.ones(mesh.ndofs),
        rho=stab.resolve_rho(mesh.h, k),
        h=mesh.h,
        k=k,
        ndofs=mesh.ndofs,
        A=A,
        S_stab=Sm,
    )
