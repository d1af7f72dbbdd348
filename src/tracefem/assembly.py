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


class SurfaceData:
    """Per-quadrature-point geometry of the lifted interface rule.

    Points are grouped by the number of interface triangles per element
    (one or two), so each group has a uniform point count and local
    matrices reduce to a single batched contraction.
    """

    def __init__(self, mesh, elems, vals, grads, nh, wlift, y, groups):
        self.mesh = mesh
        self.elems = elems        # (P,) element of each point
        self.vals = vals          # (P, NB) basis values
        self.grads = grads        # (P, NB, 3) deformed physical gradients
        self.nh = nh              # (P, 3) deformed unit normals
        self.wlift = wlift        # (P,) lifted surface weights
        self.y = y                # (P, 3) lifted points
        self.groups = groups      # list of (elem_ids (Eg,), point slice, q)

    @classmethod
    def build(cls, mesh: ActiveMesh, dls: DiscreteLevelSet, mapping: IsoMapping, degree: int):
        tri_elem, tri_bary, tri_area = extract_cuts(dls.mesh.vertex_phi, mesh.verts_phys)
        lam, w = triangle_rule(degree)
        q = len(w)
        pts = np.einsum("qc,tcm->tqm", lam, tri_bary)      # (T, q, 4)
        wref = tri_area[:, None] * w[None, :]               # (T, q)

        counts = np.bincount(tri_elem, minlength=mesh.nelems)
        parts = []
        # triangles are sorted by element, so per-element blocks are contiguous
        for ntri in (1, 2):
            sel_elems = np.flatnonzero(counts == ntri)
            if len(sel_elems) == 0:
                continue
            tri_mask = counts[tri_elem] == ntri
            bary_g = pts[tri_mask].reshape(len(sel_elems), ntri * q, 4)
            wref_g = wref[tri_mask].reshape(len(sel_elems), ntri * q)
            parts.append((sel_elems, bary_g, wref_g, ntri * q))

        flat_elems, flat_bary, flat_wref, groups = [], [], [], []
        start = 0
        for sel_elems, bary_g, wref_g, qg in parts:
            Pg = bary_g.shape[0] * qg
            flat_elems.append(np.repeat(sel_elems, qg))
            flat_bary.append(bary_g.reshape(Pg, 4))
            flat_wref.append(wref_g.reshape(Pg))
            groups.append((sel_elems, slice(start, start + Pg), qg))
            start += Pg
        elems = np.concatenate(flat_elems)
        bary = np.concatenate(flat_bary)
        wref = np.concatenate(flat_wref)

        lift = mapping.lift(elems, bary)
        wlift = wref * lift.det * lift.nn
        return cls(mesh, elems, lift.vals, lift.grads, lift.nh, wlift, lift.y, groups)

    def accumulate(self, vec, out_triplets):
        """Sum w * vec.vec' local matrices into the triplet lists, per group."""
        kern = backends.active()
        NB = self.vals.shape[1]
        for sel_elems, slc, qg in self.groups:
            Eg = len(sel_elems)
            v = vec[slc].reshape(Eg, qg, NB, -1)
            w = self.wlift[slc].reshape(Eg, qg)
            for s in range(0, Eg, CHUNK_ELEMS):
                e = min(s + CHUNK_ELEMS, Eg)
                local = kern.accumulate_sym(v[s:e], w[s:e])
                _scatter(self.mesh, sel_elems[s:e], local, out_triplets)


class VolumeData:
    """Per-point geometry of the deformed-element volume rule."""

    def __init__(self, mesh, elems, grads, nh, wvol, q):
        self.mesh = mesh
        self.elems = elems
        self.grads = grads
        self.nh = nh
        self.wvol = wvol
        self.q = q

    @classmethod
    def build(cls, mesh: ActiveMesh, mapping: IsoMapping, degree: int):
        lam, w = tet_rule(degree)
        q = len(w)
        E = mesh.nelems
        elems = np.repeat(np.arange(E, dtype=np.int64), q)
        lift = mapping.lift(elems, np.tile(lam, (E, 1)))
        wvol = np.tile(w * mesh.elem_volume, E) * lift.det
        return cls(mesh, elems, lift.grads, lift.nh, wvol, q)

    def accumulate(self, vec, out_triplets):
        kern = backends.active()
        E = self.mesh.nelems
        NB = self.grads.shape[1]
        v = vec.reshape(E, self.q, NB, -1)
        w = self.wvol.reshape(E, self.q)
        ids = np.arange(E, dtype=np.int64)
        for s in range(0, E, CHUNK_ELEMS):
            e = min(s + CHUNK_ELEMS, E)
            local = kern.accumulate_sym(v[s:e], w[s:e])
            _scatter(self.mesh, ids[s:e], local, out_triplets)


def _scatter(mesh, elems, local, out_triplets):
    dofs = mesh.elem_dofs[elems]
    NB = dofs.shape[1]
    rows = np.repeat(dofs, NB, axis=1)
    cols = np.tile(dofs, (1, NB))
    out_triplets[0].append(rows.ravel())
    out_triplets[1].append(cols.ravel())
    out_triplets[2].append(local.ravel())


def _to_csr(triplets, n):
    if not triplets[2]:
        return sp.csr_matrix((n, n))
    rows = np.concatenate(triplets[0])
    cols = np.concatenate(triplets[1])
    data = np.concatenate(triplets[2])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def assemble_a(mesh, dls, mapping, degree=None, surf: SurfaceData | None = None):
    """Tangential stiffness matrix on the deformed surface (CSR)."""
    if degree is None:
        degree = max(0, 2 * mesh.k - 2)
    if surf is None:
        surf = SurfaceData.build(mesh, dls, mapping, degree)
    tang = surf.grads - np.einsum("pbi,pi->pb", surf.grads, surf.nh)[:, :, None] * surf.nh[:, None, :]
    trip = ([], [], [])
    surf.accumulate(tang, trip)
    return _to_csr(trip, mesh.ndofs)


def assemble_constraint(mesh, dls, mapping, degree=None, surf: SurfaceData | None = None):
    """Mean-value constraint vector c_i = integral of basis_i over the deformed surface."""
    if degree is None:
        degree = max(0, 2 * mesh.k - 2)
    if surf is None:
        surf = SurfaceData.build(mesh, dls, mapping, degree)
    c = np.zeros(mesh.ndofs)
    contrib = surf.vals * surf.wlift[:, None]
    np.add.at(c, mesh.elem_dofs[surf.elems].ravel(), contrib.ravel())
    return c


def assemble_rhs(mesh, dls, mapping, problem, c, degree=None, surf: SurfaceData | None = None):
    """Load vector for the extended right-hand side, projected to mean zero.

    The raw moments f_i = int f(y) basis_i ds are corrected by
    f -= (<f, e>/<c, e>) c with e the coefficient vector of the constant
    one, which places f in the range of the singular stiffness operator.
    """
    if degree is None:
        degree = max(0, 2 * mesh.k - 2)
    if surf is None:
        surf = SurfaceData.build(mesh, dls, mapping, degree)
    fvals = problem.rhs(surf.y)
    f = np.zeros(mesh.ndofs)
    contrib = surf.vals * (surf.wlift * fvals)[:, None]
    np.add.at(f, mesh.elem_dofs[surf.elems].ravel(), contrib.ravel())
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
            surf = SurfaceData.build(mesh, dls, mapping, max(0, 2 * k - 2))
        ng = np.einsum("pbi,pi->pb", surf.grads, surf.nh)[:, :, None]
        trip = ([], [], [])
        surf.accumulate(ng, trip)
        return _to_csr(trip, mesh.ndofs)
    vol = VolumeData.build(mesh, mapping, 2 * k)
    trip = ([], [], [])
    if stab.variant == "full_gradient_volume":
        vol.wvol = vol.wvol * rho
        vol.accumulate(vol.grads, trip)
    else:  # normal_volume
        ng = np.einsum("pbi,pi->pb", vol.grads, vol.nh)[:, :, None]
        vol.wvol = vol.wvol * rho
        vol.accumulate(ng, trip)
    return _to_csr(trip, mesh.ndofs)


def _assemble_ghost(mesh, rho):
    """Gradient-jump penalty over interior facets (piecewise-linear case).

    Gradients of P1 elements are constant, so each facet contributes
    rho * area(F) * [grad b_i . n_F][grad b_j . n_F] over the union of
    the two element dof sets.
    """
    fs = mesh.facets
    if len(fs) == 0:
        return sp.csr_matrix((mesh.ndofs, mesh.ndofs))
    jumps, dofs = [], []
    for s, sign in ((0, 1.0), (1, -1.0)):
        elems = fs.elems[:, s]
        gn = np.einsum("fmi,fi->fm", mesh.bary_grad[elems], fs.normal)  # (F, 4)
        jumps.append(sign * gn)
        dofs.append(mesh.elem_dofs[elems])
    J = np.concatenate(jumps, axis=1)        # (F, 8)
    D = np.concatenate(dofs, axis=1)         # (F, 8)
    local = rho * fs.area[:, None, None] * J[:, :, None] * J[:, None, :]
    rows = np.repeat(D, 8, axis=1).ravel()
    cols = np.tile(D, (1, 8)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.ndofs, mesh.ndofs)).tocsr()


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
    if degree is None:
        degree = max(0, 2 * k - 2)
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
