"""Isoparametric mesh deformation driven by the discrete level set.

Each finite element node x of a cut element is moved along the search
direction G = grad(phi_h) by the distance d solving

    phi_h(x + d * G(x)) = phi-hat(x),      |d| <= delta = 0.5 h,

where phi-hat is the piecewise-linear vertex interpolant.  Averaging the
per-element images over the node patches yields a continuous deformation
Theta whose composition with the linear cut reconstruction gives a
higher-order accurate discrete surface.  For k = 1 the two interpolants
coincide and Theta is the identity.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import backends
from .cutquad import adjugate_and_det, triangle_rule
from .mesh import ActiveMesh, element_chunks
from .reference import DiscreteLevelSet, physical_gradients

DELTA_FRACTION = 0.5


class MappingError(RuntimeError):
    pass


class MappingInvertibilityError(RuntimeError):
    pass


class Lift(NamedTuple):
    """Geometry of points pushed through Theta, element-major (see IsoMapping.lift)."""

    vals: np.ndarray    # (E, q, NB) basis values (None for points given by gref)
    gref: np.ndarray    # (E, q, NB, 3) physical gradients of the basis before the lift
    invJ: np.ndarray    # (E, q, 3, 3) DTheta^-1
    y: np.ndarray       # (E, q, 3) deformed points (None for points given by gref)
    det: np.ndarray     # (E, q) det DTheta
    nh: np.ndarray      # (E, q, 3) unit normal DTheta^-T n-hat / |DTheta^-T n-hat|
    nn: np.ndarray      # (E, q) |DTheta^-T n-hat|

    @property
    def grads(self) -> np.ndarray:
        """(E, q, NB, 3) gradients of the lifted basis, DTheta^-T grad b."""
        return self.gref @ self.invJ

    def normal_derivatives(self) -> np.ndarray:
        """(E, q, NB) derivatives of the lifted basis along nh, gref . (DTheta^-1 nh), without grads."""
        m = (self.invJ @ self.nh[..., None])[..., 0]
        return np.einsum("eqbi,eqi->eqb", self.gref, m)


def _search(mesh: ActiveMesh, elems, coeffs, lam_x, G):
    """Distances |d| <= DELTA_FRACTION * h along the search directions G (P, 3) from barycentric points lam_x (P, 4).

    elems (P,) are the points' elements and coeffs (P, NB) their rows of phi_h.
    """
    phihat = np.einsum("pm,pm->p", lam_x, mesh.vertex_phi[elems])
    glam = np.einsum("pmi,pi->pm", mesh.bary_grad(elems), G)
    d, ok = backends.solve_dh(mesh.k, coeffs, lam_x, glam, phihat, DELTA_FRACTION * mesh.h)
    if not np.all(ok):
        bad = int(elems[np.argmin(ok)])
        raise MappingError(f"mapping construction failed (mesh too coarse): element {bad}")
    return d


def _solve_points(dls: DiscreteLevelSet, elems, x):
    """Deformation distances (P,) and search directions (P, 3) at physical points x (P, 3) of the elements elems (P,), one per point."""
    mesh = dls.mesh
    elems = np.asarray(elems, dtype=np.int64)
    lam_x = mesh.bary_of_points(elems, np.asarray(x, dtype=np.float64))
    _, G = dls.eval(elems, lam_x, grad=True)
    return _search(mesh, elems, dls.values[mesh.elem_dofs[elems]], lam_x, G), G


def psi_h(dls: DiscreteLevelSet, elems, x):
    """Per-element deformation images of physical points (batch form; build_theta's oracle)."""
    d, G = _solve_points(dls, elems, x)
    return np.asarray(x, dtype=np.float64) + d[:, None] * G


def project_average(mesh: ActiveMesh, values: np.ndarray) -> np.ndarray:
    """Unweighted nodal patch average of per-element nodal vectors (E, NB, 3)."""
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[-1]
    sums = np.zeros((mesh.ndofs, m))
    np.add.at(sums.reshape(-1), _flat_rows(mesh.elem_dofs, m), values.ravel())
    return sums / mesh.patch_counts()[:, None]


def _flat_rows(rows, m):
    """Flat indices m * row + (0, ..., m - 1) into an (n, m) array of every row of rows, in order.

    np.add.at takes its fast path only for 1-D indices and values, and
    adds in the same order: a (400k, 3) scatter takes 27 -> 3.3 ms, and
    forming its flat indices 4.1 ms (2-core Xeon, numpy 2.4).
    """
    return (m * rows.reshape(-1, 1).astype(np.int64) + np.arange(m)).ravel()


class IsoMapping:
    """Continuous polynomial deformation Theta of the active mesh.

    It keeps the displacement and Theta's nodal values, each (ndofs, 3),
    and the unit normal of the linear cut per element (E, 3); a lift
    gathers the nodal values of its elements.
    """

    def __init__(self, mesh: ActiveMesh, displacement: np.ndarray):
        self.mesh = mesh
        self.displacement = np.asarray(displacement, dtype=np.float64)
        if self.displacement.shape != (mesh.ndofs, 3):
            raise ValueError("displacement must be (ndofs, 3)")
        self.nodes = mesh.dof_points + self.displacement  # (ndofs, 3) Theta's nodal values
        g = np.einsum("emi,em->ei", mesh.bary_grad(slice(None)), mesh.vertex_phi)
        self.n_lin = g / np.linalg.norm(g, axis=-1, keepdims=True)

    def _basis(self, elems, lam):
        """Basis values (E, q, NB) and physical gradients (E, q, NB, 3) before the lift.

        elems is (E,); lam is per element (E, q, 4) or shared by all (q, 4).
        The basis is evaluated once per given point and meets the elements'
        affine maps by broadcasting.
        """
        lam = np.asarray(lam, dtype=np.float64)
        vals, dlam = self.mesh.ref.eval(lam.reshape(-1, 4))
        dlam = dlam.reshape(*lam.shape[:-1], *dlam.shape[1:])
        gref = physical_gradients(dlam, self.mesh.bary_grad(elems)[:, None])
        del dlam
        return np.broadcast_to(vals.reshape(*lam.shape[:-1], -1), gref.shape[:-1]), gref

    def _map(self, elems, vals, gref):
        """Deformed points (None without vals) and DTheta, each (E, q, ...).

        Theta's nodal values are gathered once per element.
        """
        # np.take, not fancy indexing: 0.5 against 1.3 ms per chunk of 16,384 triangles at k = 1
        Tc = np.take(self.nodes, self.mesh.elem_dofs[elems], axis=0)
        y = None if vals is None else np.einsum("eqb,ebi->eqi", vals, Tc)
        return y, Tc.transpose(0, 2, 1)[:, None] @ gref

    def eval(self, elems, lam):
        """Deformed points and Jacobians at barycentric points lam (P, 4) of elements (P,)."""
        elems = np.asarray(elems, dtype=np.int64)
        y, J = self._map(elems, *self._basis(elems, np.asarray(lam)[:, None]))
        return y[:, 0], J[:, 0]

    def lift(self, elems, lam=None, gref=None) -> Lift:
        """Push points of elements (E,) through Theta; every returned array is (E, q, ...).

        The points are barycentric, lam per element (E, q, 4) or shared by
        all (q, 4).  A caller that needs no basis values passes the physical
        gradients of the basis there instead, gref (E, q, NB, 3), as the
        volume rule does from its table; then vals and y are None.
        With J = DTheta, physical gradients pick up J^-T, a flat interface
        measure picks up det(J) * |J^-T n-hat| and the deformed unit normal
        is J^-T n-hat normalised, n-hat being the normal of the linear cut.
        Raises MappingInvertibilityError where det(J) <= 0.
        """
        elems = np.asarray(elems, dtype=np.int64)
        vals = None
        if gref is None:
            vals, gref = self._basis(elems, lam)
        y, J = self._map(elems, vals, gref)
        adj, det = adjugate_and_det(J)
        if np.any(det <= 0.0):
            raise MappingInvertibilityError("deformation not invertible (mesh too coarse)")
        invJ = np.divide(adj, det[..., None, None], out=adj)
        N = (self.n_lin[elems][:, None, None, :] @ invJ)[..., 0, :]
        nn = np.linalg.norm(N, axis=-1)
        return Lift(vals, gref, invJ, y, det, N / nn[..., None], nn)


def build_theta(dls: DiscreteLevelSet) -> IsoMapping:
    """Assemble the nodal deformation field of dls's mesh by patch-averaging element images.

    Every element solves at its own nodes alpha/k, so the search directions
    come from one (NB, NB, 4) table of basis gradients at the nodes.  The
    elements are streamed in chunks and their images summed per node.
    For k = 1 the deformation is the identity by construction; the root
    solve is skipped and a zero displacement field is returned.
    """
    mesh = dls.mesh
    if mesh.k == 1:
        return IsoMapping(mesh, np.zeros((mesh.ndofs, 3)))
    NB = mesh.ref.ndofs
    lam = mesh.ref.nodes_bary
    _, dlam = mesh.ref.eval(lam)
    table = dlam.transpose(1, 0, 2).reshape(NB, NB * 4)  # row b: gradients of basis b at the nodes
    sums = np.zeros((mesh.ndofs, 3))
    # NB nodes of NB coefficients per element, counted four times: when the
    # root solve made its (points, NB) arrays afresh at every Newton step,
    # for a shrinking set of rows, at NB^2 per element they were faulted in
    # again at every step (torus k=3 n=20 from a fresh process: 100,136
    # minor faults and 387 ms, against 477 and 195 ms at 4 NB^2).  It now
    # writes them into buffers made once per call.
    for s in element_chunks(mesh.nelems, 4 * NB * NB):
        dofs = mesh.elem_dofs[s]
        coeffs = dls.values[dofs]
        # search directions G = grad(phi_h) at the nodes, (E * NB, 3)
        G = ((coeffs @ table).reshape(-1, NB, 4) @ mesh.bary_grad(s)).reshape(-1, 3)
        elems = np.repeat(np.arange(s.start, s.stop, dtype=np.int64), NB)
        d = _search(mesh, elems, np.repeat(coeffs, NB, axis=0), np.tile(lam, (len(dofs), 1)), G)
        np.add.at(sums.reshape(-1), _flat_rows(dofs, 3), (mesh.dof_points[dofs].reshape(-1, 3) + d[:, None] * G).ravel())
    return IsoMapping(mesh, sums / mesh.patch_counts()[:, None] - mesh.dof_points)


def facet_jump_psi(dls: DiscreteLevelSet, degree: int = 4) -> float:
    """Max two-sided mismatch of the element deformations across interior facets.

    The facets are streamed in chunks, as the elements of build_theta are:
    a chunk's q quadrature points per facet are root-solved from both
    sides, 4 q NB values per facet, and the result is the max of the
    chunks' maxima.
    """
    mesh = dls.mesh
    fs = mesh.facets
    lam, _ = triangle_rule(degree)
    q = len(lam)
    jump = 0.0
    for s in element_chunks(len(fs), 4 * q * mesh.ref.ndofs):
        pts = np.einsum("qm,fmi->fqi", lam, fs.triangles(s)).reshape(-1, 3)
        lo, hi = (psi_h(dls, np.repeat(e, q), pts) for e in fs.elems[s].T)
        jump = np.maximum(jump, np.linalg.norm(lo - hi, axis=-1).max())  # keeps a nan
    return float(jump)
