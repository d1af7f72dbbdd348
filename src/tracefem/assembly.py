"""Assembly of the stiffness form, stabilizations, constraint and load.

All surface integrals are evaluated on the flat interface triangles of
the cut elements and pushed onto the deformed surface through the
isoparametric map: with J = DTheta at a quadrature point, physical
gradients pick up J^-T, the surface measure picks up
det(J) * |J^-T n-hat|, and tangential projection uses the deformed unit
normal.  Volume stabilizations integrate over the deformed cut elements
with the det(J) factor alone.  The full-gradient surface stabilization is
part of the stiffness integrand (_surface_pass).
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import backends
from .cutquad import corners, extract_cuts, tet_rule, triangle_rule
from .mapping import IsoMapping
from .mesh import SHAPE_BARY_A, element_chunks
from .reference import physical_gradients

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
    or None for the variant default (1 for ghost_penalty and
    full_gradient_surface, h for full_gradient_volume, 1/h for
    normal_volume).
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
            pre, expo = (float(v) for v in self.rho[1:])
            if not (math.isfinite(pre) and pre >= 0.0 and math.isfinite(expo)):
                raise ValueError(f"custom rho needs a finite prefactor >= 0 and a finite exponent, got {self.rho!r}")
            if self.variant == "normal_volume" and not -1.0 <= expo <= 1.0:
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


# What one chunk of a lifted rule may allocate, in doubles: 2 MiB (see LiftedRule).
CHUNK_DOUBLES = 2**18


class LiftedRule:
    """Quadrature points of the active elements, pushed through Theta chunk by chunk where they are used.

    Points come in cells of q points, cell by cell; each cell lies in one
    element, cells (C,) naming it: an interface triangle for the surface
    rule, an element for the volume rule.  A rule keeps only what lifts a
    slice of cells, never lifted data: a subclass lifts the cells of a
    slice in _lift(s), and chunks() yields each chunk as a Lift of
    (Ec, q, ...) arrays with its lifted weights (Ec, q), which the caller
    uses at once.  Local matrices then reduce to one batched contraction
    per chunk.  An element with two cells gets two local matrices, which
    Pattern.add sums.

    A chunk holds at most CHUNK_DOUBLES doubles of what its points
    allocate, a * NB + b per point with (a, b) = point_doubles: the lift,
    eval_basis's factors, the integrand and accumulate_sym's copies of it
    all grow with NB.  The surface rule is charged for its stiffness
    integrand (SurfaceData.POINT_DOUBLES), under which compute_errors and
    the other uses of its chunks stay; the volume rule for the width M of
    its integrand (Ec, q, NB, M), VolumeData.POINT_DOUBLES[M].  Each
    chunk's peak above what was live when it started, in doubles per point
    (tracemalloc, the fullest chunks, one BLAS thread; torus k=1 n=32,
    torus k=2 and 3 n=12, sphere k=4 and 5 n=8, printed by
    PYTHONPATH=src python tests/test_assembly.py):

        k (NB)              1 (4)  2 (10)  3 (20)  4 (35)  5 (56)  charged
        surface pass           53     102     185     309     483  9 NB + 18
        compute_errors         51      94     169     285     453
        normal derivative      39      58      98     158     243  4 NB + 24
        full gradient          39      75     136     225     523  7 NB + 16

    the last two in the volume pass.  At k=5 a full-gradient chunk holds
    two elements and accumulate_sym's runs one each, so its copies are
    half again the integrand's size; the chunk still peaks at 1.73 MiB.
    Every chunk peaks at 1.6-2.0 MiB of the 2 MiB budget.  With 4 MiB
    chunks the surface pass took 19 NB + 20 doubles a point and
    compute_errors 15 NB, with all of eval_basis's factors and products
    and three copies of the integrand alive beside the lift, and the
    full-gradient volume chunks, charged 8 NB + 8 like the normal
    derivative's, peaked at 7.5 MiB.
    """

    def __init__(self, mapping, cells, q, point_doubles):
        self.mesh, self.mapping, self.cells, self.q = mapping.mesh, mapping, cells, q
        self.point_doubles = point_doubles

    @property
    def elems(self):
        """(P,) the element of every point."""
        return np.repeat(self.cells, self.q)

    @property
    def cell_doubles(self):
        """Doubles that one cell's q points allocate in a chunk, q * (a * NB + b)."""
        a, b = self.point_doubles
        return self.q * (a * self.mesh.ref.ndofs + b)

    def slices(self):
        """Slices of consecutive cells, one per chunk, each at most CHUNK_DOUBLES doubles."""
        return element_chunks(len(self.cells), self.cell_doubles, CHUNK_DOUBLES)

    def chunks(self):
        """Yield (cells (Ec,), Lift, lifted weights (Ec, q)) for the cells of every slice.

        The generator keeps no reference to a chunk it has yielded; a caller
        that drops its own before asking for the next chunk has one chunk
        alive at a time.
        """
        for s in self.slices():
            yield (self.cells[s], *self._lift(s))

    def accumulate(self, integrand, out, each=None):
        """Add w * v.v' local matrices into out, a Pattern with element blocks, v = integrand(lift) (Ec, q, NB, M).

        each(cells, lift, w), if given, is called on every chunk first, so
        other integrals share the chunk's lift; the integrand then gets the
        lift without vals and y.  The lift is freed before the local
        matrices are formed.
        """
        for cells, lift, w in self.chunks():
            if each is not None:
                each(cells, lift, w)
                lift = lift._replace(vals=None, y=None)
            vec = integrand(lift)
            del lift
            out.add("elements", cells, backends.accumulate_sym(vec, w))
            del vec, w  # freed before the next chunk's lift


# The interface triangles of every mesh: the zero level of the linear
# vertex interpolant depends on the mesh alone, so it is cut once and
# shared by every surface rule of the mesh, whatever its degree.  Keyed
# weakly, the triangles die with their mesh.
_CUTS = weakref.WeakKeyDictionary()


class SurfaceData(LiftedRule):
    """The lifted interface rule: its cells are the interface triangles.

    It keeps the cut of extract_cuts, shared with every other surface rule
    of the mesh: the triangles' elements (T,) int32, their corners as edge
    codes (T, 3) uint8 and edge fractions (T, 3), and their flat areas
    (T,), 39 bytes a triangle; and the triangle rule, points lam (q, 3) and
    weights w (q,).  A chunk rebuilds its barycentric corners (Ec, 3, 4)
    with cutquad.corners and forms its points (Ec, q, 4) and flat weights
    from them.  A chunk's Lift carries basis values and lifted points too,
    for the constraint, the load and the errors.
    """

    POINT_DOUBLES = (9, 18)

    def __init__(self, mapping, tri_elem, tri_edges, tri_fracs, tri_area, degree):
        """tri_elem (T,): the triangles' elements; tri_edges and tri_fracs (T, 3) their corners; tri_area (T,) their areas."""
        self.lam, self.w = triangle_rule(degree)
        super().__init__(mapping, tri_elem, len(self.w), self.POINT_DOUBLES)
        self.tri_edges, self.tri_fracs, self.tri_area = tri_edges, tri_fracs, tri_area

    @classmethod
    def build(cls, mapping: IsoMapping, degree=None):
        """Rule exact to `degree` on each triangle of mapping's mesh; by default 2k - 2, the assembly degree.

        The first rule of a mesh cuts its elements chunk by chunk.  The
        vertex signs count the triangles beforehand, two for a two-two
        split and one otherwise, so the cut's four arrays are allocated
        once and every chunk's cut is written into its slice: nothing of a
        chunk outlives it.  The triangles stay sorted by element, and
        later rules of the mesh reuse them (read-only).
        """
        mesh = mapping.mesh
        if degree is None:
            degree = max(0, 2 * mesh.k - 2)
        if mesh not in _CUTS:
            ntri = mesh.nelems + np.count_nonzero(np.count_nonzero(mesh.vertex_phi < 0.0, axis=1) == 2)
            tri = (np.empty(ntri, dtype=np.int32), np.empty((ntri, 3), dtype=np.uint8), np.empty((ntri, 3)), np.empty(ntri))
            t = 0
            for s in element_chunks(mesh.nelems, 2 * 3 * 4):
                elem, *rest = extract_cuts(mesh.vertex_phi[s], mesh.verts_phys(s))
                at = slice(t, t + len(elem))
                for a, b in zip(tri, (elem + s.start, *rest)):
                    a[at] = b
                t = at.stop
            for a in tri:
                a.setflags(write=False)
            _CUTS[mesh] = tri
        return cls(mapping, *_CUTS[mesh], degree)

    def _lift(self, s):
        lift = self.mapping.lift(self.cells[s], np.einsum("qc,tcm->tqm", self.lam, corners(self.tri_edges[s], self.tri_fracs[s])))
        return lift, self.tri_area[s][:, None] * self.w * lift.det * lift.nn


class VolumeData(LiftedRule):
    """The deformed-element volume rule: its cells are the elements, with the same reference points.

    It keeps the physical gradients of the basis at the reference points,
    which take one value per Kuhn shape, as a (6, q, NB, 3) table, the
    reference weights (q,) and a weight scale (the stabilization's rho):
    a chunk's weights are (wref * det DTheta) * scale.  Its chunks are
    charged for the width of the integrand they feed: 1 for the normal
    derivative, 3 for the full gradient.
    """

    POINT_DOUBLES = {1: (4, 24), 3: (7, 16)}

    def __init__(self, mapping, table, wref, scale=1.0, width=1):
        super().__init__(mapping, np.arange(mapping.mesh.nelems, dtype=np.int64), len(wref), self.POINT_DOUBLES[width])
        self.table, self.wref, self.scale = table, wref, scale

    @classmethod
    def build(cls, mapping: IsoMapping, degree: int, scale=1.0, width=1):
        mesh = mapping.mesh
        lam, w = tet_rule(degree)
        _, dlam = mesh.ref.eval(lam)
        table = physical_gradients(dlam, SHAPE_BARY_A[:, None] / mesh.h)
        return cls(mapping, table, w * mesh.elem_volume, scale, width)

    def _lift(self, s):
        lift = self.mapping.lift(self.cells[s], gref=self.table[self.mesh.tet[s]])
        return lift, self.wref * lift.det * self.scale


# Sorting a block's dofs before the slot search pays from k = 3 (20 dofs)
# on and costs as much as it saves at k = 2 (10), but at k = 1 (4 and 5)
# its ranks cost more than the search saves: medians of 8 alternating
# searches, torus k=1 n=64 (elements and facet patches) 136 -> 166 ms,
# k=1 n=128 536 -> 677, k=2 n=32 45 -> 46, k=3 n=20 95 -> 84, k=5 n=16
# 588 -> 441 ms.
SORTED_SEARCH_DOFS = 10


class Pattern:
    """CSR matrix on the union of dense dof blocks, into whose data local matrices are added.

    Each keyword names a family of blocks, dof rows (B, nb), which the
    pattern keeps by reference.  The CSR pattern is that of B^T B for the
    (blocks x n) incidence B of every family, with sorted column indices.
    offsets[name] (B, nb, nb) is the place of every local entry within its
    row, found chunk by chunk of blocks in the nnz sorted keys
    row * n + column, in the smallest unsigned type that holds the longest
    row: uint8 up to 256 entries.  slots() adds the rows' starts.  No key
    array of all local entries is ever made.  Blocks of more than
    SORTED_SEARCH_DOFS dofs are searched with each block's dofs sorted, so
    that its keys ascend and each search starts near the last, and every
    offset is taken back through the dofs' ranks.
    """

    def __init__(self, n, **blocks):
        self.dofs = blocks
        fams = list(blocks.values())
        widths = np.repeat(np.array([d.shape[1] for d in fams], dtype=np.int64), [len(d) for d in fams])
        # bool entries: scipy sums them as a logical or, so no count can wrap to an explicit zero and be dropped
        incidence = sp.csr_matrix(
            (
                np.ones(widths.sum(), dtype=bool),
                np.concatenate([np.zeros(0, dtype=np.int32)] + [d.astype(np.int32).ravel() for d in fams]),
                np.concatenate([[0], np.cumsum(widths)]),
            ),
            shape=(len(widths), n),
        )
        product = incidence.T.tocsr() @ incidence
        del incidence
        product.sort_indices()
        indptr, indices = product.indptr, product.indices
        del product
        key = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))
        key += indices
        offset = np.min_scalar_type(np.diff(indptr).max(initial=1) - 1)
        self.offsets = {}
        for name, d in blocks.items():
            B, nb = d.shape
            self.offsets[name] = off = np.empty((B, nb, nb), dtype=offset)
            for s in element_chunks(B, nb * nb):
                c = d[s].astype(np.int64)
                if nb <= SORTED_SEARCH_DOFS:
                    off[s] = np.searchsorted(key, c[:, :, None] * n + c[:, None, :]) - indptr[c][:, :, None]
                    continue
                order = np.argsort(c, axis=1)
                rank = np.empty_like(order)
                np.put_along_axis(rank, order, np.arange(nb), axis=1)
                c = np.take_along_axis(c, order, axis=1)
                found = np.searchsorted(key, c[:, :, None] * n + c[:, None, :]) - indptr[c][:, :, None]
                # entry (a, b) of a block is entry (rank a, rank b) of its sorted block
                at = (np.arange(len(c)) * nb * nb)[:, None, None] + rank[:, :, None] * nb + rank[:, None, :]
                off[s] = found.ravel().take(at)
        del key
        self.matrix = sp.csr_matrix((np.zeros(len(indices)), indices, indptr), shape=(n, n))

    def slots(self, name, rows):
        """(B', nb, nb) places in matrix.data of the local entries of the blocks rows of family name."""
        return self.matrix.indptr[self.dofs[name][rows]][..., None] + self.offsets[name][rows]

    def add(self, name, rows, local):
        """Add local matrices (B', nb, nb) on the blocks rows of family name; a repeated row sums."""
        # flat indices and values: np.add.at's fast path, in the same order
        np.add.at(self.matrix.data, self.slots(name, rows).ravel(), np.ravel(local))


def _surface_pass(surf, problem, out, root_rho):
    """One pass over the surface rule: the surface integrand into out, c and the raw load moments.

    v = g - (1 - root_rho) (g . n) n of the lifted gradients g gives
    v . v' = Pg . Pg' + rho (n . g)(n . g'): A plus the full-gradient
    surface stabilization for root_rho = sqrt(rho), and A to the bit for
    root_rho = 0.  c_i is the integral of basis_i and f_i that of
    f(y) * basis_i, both summed chunk by chunk, in point order.
    """
    mesh = surf.mesh
    c = np.zeros(mesh.ndofs)
    f = np.zeros(mesh.ndofs)

    def integrand(lift):
        g = lift.grads
        gn = np.einsum("eqbi,eqi->eqb", g, lift.nh)
        n = (1.0 - root_rho) * lift.nh
        for i in range(3):  # g - gn n, one component at a time
            g[..., i] -= gn * n[..., i, None]
        return g

    def each(cells, lift, w):
        dofs = np.broadcast_to(mesh.elem_dofs[cells][:, None], lift.vals.shape).ravel()
        np.add.at(c, dofs, (lift.vals * w[..., None]).ravel())
        g = w * problem.rhs(lift.y.reshape(-1, 3)).reshape(w.shape)
        np.add.at(f, dofs, (lift.vals * g[..., None]).ravel())

    surf.accumulate(integrand, out, each)
    return c, f


def assemble_s(mapping, stab: StabConfig, out: Pattern):
    """Add the facet or volume stabilization of stab on mapping's mesh into out.

    For ghost_penalty, out's 'facets' blocks are the patch dofs of
    _ghost_dofs; each chunk of facets forms its areas and normals
    (FacetSet.geometry) and its normal-derivative jumps (_ghost_jumps)
    once, where its local matrices are added, so no array of every
    facet's geometry or jumps is made.  'none' adds nothing, and neither
    does full_gradient_surface: its term is part of the surface integrand.
    """
    mesh = mapping.mesh
    rho = stab.resolve_rho(mesh.h, mesh.k)
    if stab.variant == "ghost_penalty":
        for s in _facet_chunks(mesh):
            area, normal = mesh.facets.geometry(s)
            jump = _ghost_jumps(mesh, s, normal)
            out.add("facets", s, rho * area[:, None, None] * jump[:, :, None] * jump[:, None, :])
    elif stab.variant in ("full_gradient_volume", "normal_volume"):
        full = stab.variant == "full_gradient_volume"
        vol = VolumeData.build(mapping, 2 * mesh.k, scale=rho, width=3 if full else 1)
        vol.accumulate(lambda lift: lift.grads if full else lift.normal_derivatives()[..., None], out)


def _facet_chunks(mesh):
    """Slices of mesh's interior facets, one per chunk of the gradient-jump penalty: both elements' (4, 3) barycentric gradients per facet."""
    return element_chunks(len(mesh.facets), 2 * 4 * 3)


def _ghost_patches(mesh, s):
    """The patches of the facets s (a chunk) of the gradient-jump penalty: lower and upper dofs (F', 4) and the patch column of each upper dof.

    Gradients of P1 elements are constant, so each interior facet F
    contributes rho * area(F) * [grad b_i . n_F][grad b_j . n_F] on its
    patch of five dofs: the lower element's four, then the upper element's
    vertex opposite F.  The columns are an index pair into (F', 5): an
    upper dof on F takes the column of the same lower dof, the other one
    column 4.  _ghost_dofs forms the patches' dofs from them and
    _ghost_jumps their jumps.
    """
    lo, hi = (mesh.elem_dofs[e] for e in mesh.facets.elems[s].T)
    shared = hi[:, :, None] == lo[:, None, :]  # (F', 4, 4)
    return lo, hi, (np.arange(len(lo))[:, None], np.where(shared.any(axis=2), shared.argmax(axis=2), 4))


def _ghost_jumps(mesh, s, normal):
    """(F', 5) jumps [grad b . n] across the facets s (a chunk), of unit normals normal (F', 3), on their patches: the lower minus the upper element's value."""
    at = _ghost_patches(mesh, s)[2]
    gn_lo, gn_hi = (np.einsum("fmi,fi->fm", mesh.bary_grad(e), normal) for e in mesh.facets.elems[s].T)
    jump = np.concatenate([gn_lo, np.zeros((len(gn_lo), 1))], axis=1)
    jump[at] -= gn_hi
    return jump


def _ghost_dofs(mesh):
    """(F, 5) int32 dofs of every facet patch of the gradient-jump penalty, the 'facets' blocks of its Pattern, filled chunk by chunk."""
    if mesh.k != 1:
        raise ValueError("ghost_penalty is unsupported for k > 1 (no higher-order theory)")
    dofs = np.empty((len(mesh.facets), 5), dtype=np.int32)
    for s in _facet_chunks(mesh):
        lo, hi, at = _ghost_patches(mesh, s)
        patch = dofs[s]
        patch[:, :4], patch[:, 4] = lo, lo[:, 0]
        patch[at] = hi
    return dofs


@dataclass
class AssembledSystem:
    """Stiffness-plus-stabilization operator with constraint and load."""

    S: sp.csr_matrix
    c: np.ndarray
    f: np.ndarray


def assemble_system(mesh, dls, mapping, problem, stab: StabConfig) -> AssembledSystem:
    """One-stop assembly: one pass over the surface rule for A, c, f and a surface stabilization, and one Pattern for S.

    The three must be one level, dls and mapping both on mesh; anything
    else raises ValueError before anything is cut or cached.  The raw load moments f are projected to mean zero,
    f -= (<f, e>/<c, e>) c with e the coefficient vector of the constant
    one, which places f in the range of the singular stiffness operator.
    """
    if not (dls.mesh is mesh is mapping.mesh):
        raise ValueError("mesh, level set and mapping are not one level")
    blocks = {"elements": mesh.elem_dofs}
    if stab.variant == "ghost_penalty":
        blocks["facets"] = _ghost_dofs(mesh)  # the jumps are formed where assemble_s adds them
    out = Pattern(mesh.ndofs, **blocks)  # keeps the facet patches' dofs for its slots
    # the surface rule is built after the pattern, so a mesh's first rule and
    # its cut are not alive at the pattern's peak; a later assembly of the
    # mesh builds its pattern with the cached cut alive
    surf = SurfaceData.build(mapping)
    root_rho = math.sqrt(stab.resolve_rho(mesh.h, mesh.k)) if stab.variant == "full_gradient_surface" else 0.0
    c, f = _surface_pass(surf, problem, out, root_rho)
    assemble_s(mapping, stab, out)
    f -= f.sum() / c.sum() * c  # pairwise sums: independent of the BLAS thread count
    return AssembledSystem(S=out.matrix, c=c, f=f)
