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

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import backends
from .cutquad import extract_cuts, tet_rule, triangle_rule
from .mapping import IsoMapping, Lift, element_chunks
from .mesh import SHAPE_BARY_A, ActiveMesh
from .reference import DiscreteLevelSet, physical_gradients

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
        if not (self.rho is None or isinstance(self.rho, (str, tuple))):
            raise ValueError(f"rho must be a scaling name or ('custom', prefactor, exponent), got {self.rho!r}")
        if isinstance(self.rho, str) and self.rho not in ("h_inv", "h_times_k4"):
            raise ValueError(f"unknown rho scaling {self.rho!r}")
        if isinstance(self.rho, tuple):
            real = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in self.rho[1:])
            if len(self.rho) != 3 or self.rho[0] != "custom" or not real:
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

    Points are stored in cells of q points, cell by cell; each cell lies in
    one element, cells (C,) naming it: an interface triangle for the
    surface rule, an element for the volume rule.  Per point a rule keeps
    its element, its lifted weight and, from DTheta, what the integrands
    need: DTheta^-1 and the deformed unit normal.  Cells are lifted and
    integrated in chunks of consecutive cells; integrands see a chunk as a
    Lift of (Ec, q, ...) arrays whose physical gradients of the basis come
    from _gref, with weights (Ec, q), so local matrices reduce to one
    batched contraction per chunk.  An element with two cells gets two
    local matrices, which Pattern.add sums.
    """

    def __init__(self, mesh, cells, q, lift_cells, keep=()):
        """lift_cells(s) lifts the cells s (a slice) and returns (Lift, lifted weights (Ec, q)).

        Besides w, invJ and nh the fields keep of each Lift are stored, into
        arrays the subclass allocated per point.
        """
        self.mesh, self.cells, self.q = mesh, cells, q
        self.elems = np.repeat(cells, q)  # (P,)
        P = len(self.elems)
        self.w = np.empty(P)              # lifted weights
        self.invJ = np.empty((P, 3, 3))   # DTheta^-1
        self.nh = np.empty((P, 3))        # deformed unit normals
        for s, p in self._chunks():
            lift, w = lift_cells(s)
            self.w[p] = w.ravel()
            for name in ("invJ", "nh", *keep):
                a = getattr(lift, name)
                getattr(self, name)[p] = a.reshape(-1, *a.shape[2:])

    def _chunks(self):
        """Slices of cells and of their points, at most CHUNK_POINTS points each."""
        q = self.q
        return [(s, slice(s.start * q, s.stop * q)) for s in element_chunks(len(self.cells), q)]

    def accumulate(self, integrand, out):
        """Add w * v.v' local matrices into out, a Pattern with element blocks, v = integrand(lift) (Ec, q, NB, M)."""
        kern = backends.active()
        for s, p in self._chunks():
            e = self.cells[s]
            shape = (len(e), self.q)
            gref = self._gref(e, p).reshape(*shape, -1, 3)
            invJ, nh = self.invJ[p].reshape(*shape, 3, 3), self.nh[p].reshape(*shape, 3)
            lift = Lift(None, gref, invJ, None, None, nh, None)
            out.add("elements", e, kern.accumulate_sym(integrand(lift), self.w[p].reshape(shape)))


class SurfaceData(LiftedRule):
    """The lifted interface rule: its cells are the interface triangles.

    It keeps per point what the errors read too: basis values, physical
    gradients before the lift and the lifted points.
    """

    def __init__(self, mesh, mapping, tri_elem, pts, wref):
        """tri_elem (T,): the triangles' elements; pts (T, q, 4) barycentric points; wref (T, q) flat weights."""
        P, NB = wref.size, mesh.ref.ndofs
        self.vals = np.empty((P, NB))     # basis values
        self.gref = np.empty((P, NB, 3))  # physical gradients before the lift
        self.y = np.empty((P, 3))         # lifted points

        def lift_cells(s):
            lift = mapping.lift(tri_elem[s], pts[s])
            return lift, wref[s] * lift.det * lift.nn

        super().__init__(mesh, tri_elem, pts.shape[1], lift_cells, ("vals", "gref", "y"))

    @classmethod
    def build(cls, mesh: ActiveMesh, dls: DiscreteLevelSet, mapping: IsoMapping, degree=None):
        """Rule exact to `degree` on each triangle; by default 2k - 2, the assembly degree."""
        if degree is None:
            degree = max(0, 2 * mesh.k - 2)
        tri_elem, tri_bary, tri_area = extract_cuts(dls.mesh.vertex_phi, mesh.verts_phys)
        lam, w = triangle_rule(degree)
        pts = np.einsum("qc,tcm->tqm", lam, tri_bary)  # (T, q, 4)
        return cls(mesh, mapping, tri_elem, pts, tri_area[:, None] * w[None, :])

    def _gref(self, elems, p):
        return self.gref[p]

    def moments(self, g):
        """Vector of the integrals of g * basis_i over the rule, g given per point."""
        out = np.zeros(self.mesh.ndofs)
        np.add.at(out, self.mesh.elem_dofs[self.elems].ravel(), (self.vals * g[:, None]).ravel())
        return out


class VolumeData(LiftedRule):
    """The deformed-element volume rule: its cells are the elements, with the same reference points.

    The physical gradients of the basis at the rule's points take one value
    per Kuhn shape, so they come from a (6, q, NB, 3) table and are never
    stored per point.
    """

    def __init__(self, mesh, mapping, table, wref):
        self.table = table  # (6, q, NB, 3)

        def lift_cells(s):
            lift = mapping.lift(np.arange(s.start, s.stop), gref=table[mesh.tet[s]])
            return lift, wref * lift.det

        super().__init__(mesh, np.arange(mesh.nelems, dtype=np.int64), len(wref), lift_cells)

    @classmethod
    def build(cls, mesh: ActiveMesh, mapping: IsoMapping, degree: int):
        lam, w = tet_rule(degree)
        _, dlam = mesh.ref.eval(lam, grad=True)
        table = physical_gradients(dlam, SHAPE_BARY_A[:, None] / mesh.h)
        return cls(mesh, mapping, table, w * mesh.elem_volume)

    def _gref(self, elems, p):
        return self.table[self.mesh.tet[elems]]


class Pattern:
    """CSR matrix on the union of dense dof blocks, into whose data local matrices are added.

    Each keyword names a family of blocks, dof rows (B, nb); slots[name]
    (B, nb, nb) is the place in matrix.data of every local entry.  Column
    indices are sorted.
    """

    def __init__(self, n, **blocks):
        keys = {name: d[:, :, None] * n + d[:, None, :] for name, d in blocks.items()}
        # sorted, not np.unique: for int64 keys numpy's unique takes a hash path many times slower
        uniq = np.concatenate([k.ravel() for k in keys.values()] or [np.empty(0, np.int64)])
        uniq.sort()
        first = np.ones(len(uniq), dtype=bool)
        np.not_equal(uniq[1:], uniq[:-1], out=first[1:])
        uniq = uniq[first]
        self.slots = {name: np.searchsorted(uniq, k) for name, k in keys.items()}
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
        self.matrix = sp.csr_matrix((np.zeros(len(uniq)), uniq % n, indptr), shape=(n, n))

    def add(self, name, rows, local):
        """Add local matrices (B', nb, nb) on the blocks rows of family name; a repeated row sums."""
        np.add.at(self.matrix.data, self.slots[name][rows], local)


def _matrix(rule, integrand, out):
    """CSR matrix of the sum over the rule of w * v_i . v_j, v = integrand(lift), added into out if given."""
    if out is None:
        out = Pattern(rule.mesh.ndofs, elements=rule.mesh.elem_dofs)
    rule.accumulate(integrand, out)
    return out.matrix


def _grads(lift):
    return lift.grads


def _normal_derivatives(lift):
    return lift.normal_derivatives()[..., None]


def _tangential_grads(lift):
    g = lift.grads
    return g - np.einsum("eqbi,eqi->eqb", g, lift.nh)[..., None] * lift.nh[..., None, :]


def assemble_a(mesh, dls, mapping, degree=None, surf: SurfaceData | None = None, out: Pattern | None = None):
    """Tangential stiffness matrix on the deformed surface (CSR), added into out if given."""
    if surf is None:
        surf = SurfaceData.build(mesh, dls, mapping, degree)
    return _matrix(surf, _tangential_grads, out)


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


def assemble_s(mesh, dls, mapping, stab: StabConfig, surf: SurfaceData | None = None, out: Pattern | None = None):
    """Stabilization matrix for the chosen variant (CSR; zero for 'none'), added into out if given."""
    k = mesh.k
    rho = stab.resolve_rho(mesh.h, k)
    if stab.variant == "none":
        return (Pattern(mesh.ndofs) if out is None else out).matrix
    if stab.variant == "ghost_penalty":
        dofs, jump = _ghost_patches(mesh)
        out = Pattern(mesh.ndofs, facets=dofs) if out is None else out
        out.add("facets", slice(None), rho * mesh.facets.area[:, None, None] * jump[:, :, None] * jump[:, None, :])
        return out.matrix
    if stab.variant == "full_gradient_surface":
        if surf is None:
            surf = SurfaceData.build(mesh, dls, mapping)
        return _matrix(surf, _normal_derivatives, out)
    vol = VolumeData.build(mesh, mapping, 2 * k)
    vol.w = vol.w * rho
    if stab.variant == "full_gradient_volume":
        return _matrix(vol, _grads, out)
    return _matrix(vol, _normal_derivatives, out)  # normal_volume


def _ghost_patches(mesh):
    """Dofs (F, 5) and normal-derivative jumps (F, 5) of the facet patches of the gradient-jump penalty.

    Gradients of P1 elements are constant, so each interior facet F
    contributes rho * area(F) * [grad b_i . n_F][grad b_j . n_F] on its
    patch: the lower element's four dofs and the upper element's vertex
    opposite F.  A dof on F takes the lower minus the upper element's value.
    """
    if mesh.k != 1:
        raise ValueError("ghost_penalty is unsupported for k > 1 (no higher-order theory)")
    fs = mesh.facets
    lo, hi = (mesh.elem_dofs[e] for e in fs.elems.T)
    shared = hi[:, :, None] == lo[:, None, :]  # (F, 4, 4)
    at = (np.arange(len(lo))[:, None], np.where(shared.any(axis=2), shared.argmax(axis=2), 4))  # upper dofs in the patch
    dofs = np.concatenate([lo, lo[:, :1]], axis=1)
    dofs[at] = hi
    gn_lo, gn_hi = (np.einsum("fmi,fi->fm", mesh.bary_grad[e], fs.normal) for e in fs.elems.T)
    jump = np.concatenate([gn_lo, np.zeros((len(lo), 1))], axis=1)
    jump[at] -= gn_hi
    return dofs, jump


@dataclass
class AssembledSystem:
    """Stiffness-plus-stabilization operator with constraint and load."""

    S: sp.csr_matrix
    c: np.ndarray
    f: np.ndarray
    e: np.ndarray
    ndofs: int


def assemble_system(mesh, dls, mapping, problem, stab: StabConfig, degree=None) -> AssembledSystem:
    """One-stop assembly sharing the lifted surface rule, and one Pattern for A and the stabilization."""
    surf = SurfaceData.build(mesh, dls, mapping, degree)
    blocks = {"elements": mesh.elem_dofs}
    if stab.variant == "ghost_penalty":
        blocks["facets"] = _ghost_patches(mesh)[0]
    out = Pattern(mesh.ndofs, **blocks)
    assemble_a(mesh, dls, mapping, surf=surf, out=out)
    S = assemble_s(mesh, dls, mapping, stab, surf=surf, out=out)
    c = assemble_constraint(mesh, dls, mapping, surf=surf)
    f = assemble_rhs(mesh, dls, mapping, problem, c, surf=surf)
    return AssembledSystem(S=S, c=c, f=f, e=np.ones(mesh.ndofs), ndofs=mesh.ndofs)
