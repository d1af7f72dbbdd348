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
from .mesh import ActiveMesh
from .reference import DiscreteLevelSet, physical_gradients

DELTA_FRACTION = 0.5
ROOT_RTOL = 1e-12


class MappingError(RuntimeError):
    pass


class MappingInvertibilityError(RuntimeError):
    pass


class Lift(NamedTuple):
    """Geometry of points pushed through Theta (see IsoMapping.lift)."""

    vals: np.ndarray    # (P, NB) basis values
    grads: np.ndarray   # (P, NB, 3) gradients of the lifted basis, DTheta^-T grad b
    y: np.ndarray       # (P, 3) deformed points
    det: np.ndarray     # (P,) det DTheta
    nh: np.ndarray      # (P, 3) unit normal DTheta^-T n-hat / |DTheta^-T n-hat|
    nn: np.ndarray      # (P,) |DTheta^-T n-hat|


def _solve_points(mesh: ActiveMesh, dls: DiscreteLevelSet, elems, x, delta=None, rtol=ROOT_RTOL):
    """Batched deformation distances at physical points of given elements."""
    elems = np.asarray(elems, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    if delta is None:
        delta = DELTA_FRACTION * mesh.h
    lam_x = mesh.bary_of_points(elems, x)
    coeffs = dls.values[mesh.elem_dofs[elems]]
    _, dlam = mesh.ref.eval(lam_x, grad=True)
    G = np.einsum("pbm,pb,pmi->pi", dlam, coeffs, mesh.bary_grad[elems])
    phihat = np.einsum("pm,pm->p", lam_x, mesh.vertex_phi[elems])
    glam = np.einsum("pmi,pi->pm", mesh.bary_grad[elems], G)
    d, ok = backends.active().solve_dh(
        mesh.k, coeffs, lam_x, glam, phihat, delta, rtol=rtol
    )
    if not np.all(ok):
        bad = int(elems[np.argmin(ok)])
        raise MappingError(f"mapping construction failed (mesh too coarse): element {bad}")
    return d, G


class SearchContext:
    """Deformation search restricted to a single element."""

    def __init__(self, mesh: ActiveMesh, dls: DiscreteLevelSet, elem: int, delta: float | None = None):
        self.mesh = mesh
        self.dls = dls
        self.elem = int(elem)
        self.delta = DELTA_FRACTION * mesh.h if delta is None else float(delta)

    def solve_dh(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        elems = np.full(len(x), self.elem, dtype=np.int64)
        d, _ = _solve_points(self.mesh, self.dls, elems, x, self.delta)
        return d if d.size > 1 else float(d[0])

    def psi_h(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        elems = np.full(len(x), self.elem, dtype=np.int64)
        d, G = _solve_points(self.mesh, self.dls, elems, x, self.delta)
        return x + d[:, None] * G


def psi_h(mesh: ActiveMesh, dls: DiscreteLevelSet, elems, x, delta=None):
    """Per-element deformation images of physical points (batch form)."""
    d, G = _solve_points(mesh, dls, elems, x, delta)
    return np.asarray(x, dtype=np.float64) + d[:, None] * G


def project_average(mesh: ActiveMesh, values: np.ndarray) -> np.ndarray:
    """Unweighted nodal patch average of per-element nodal vectors (E, NB, 3)."""
    values = np.asarray(values, dtype=np.float64)
    sums = np.zeros((mesh.ndofs, values.shape[-1]))
    np.add.at(sums, mesh.elem_dofs.ravel(), values.reshape(-1, values.shape[-1]))
    return sums / mesh.patch_counts()[:, None]


class IsoMapping:
    """Continuous polynomial deformation Theta of the active mesh."""

    def __init__(self, mesh: ActiveMesh, displacement: np.ndarray):
        self.mesh = mesh
        self.displacement = np.asarray(displacement, dtype=np.float64)
        if self.displacement.shape != (mesh.ndofs, 3):
            raise ValueError("displacement must be (ndofs, 3)")
        self._coeffs = None
        g = np.einsum("emi,em->ei", mesh.bary_grad, mesh.vertex_phi)
        self.n_lin = g / np.linalg.norm(g, axis=-1, keepdims=True)

    @property
    def coeffs(self) -> np.ndarray:
        """(E, NB, 3) nodal coefficients of Theta per element."""
        if self._coeffs is None:
            pos = self.mesh.dof_points + self.displacement
            self._coeffs = pos[self.mesh.elem_dofs]
        return self._coeffs

    def _jacobian(self, elems, lam):
        """Basis values, undeformed physical gradients, y and DTheta at the points."""
        elems = np.asarray(elems, dtype=np.int64)
        vals, dlam = self.mesh.ref.eval(lam, grad=True)
        gref = physical_gradients(dlam, self.mesh.bary_grad[elems])
        del dlam
        Tc = self.coeffs[elems]
        y = np.einsum("pb,pbi->pi", vals, Tc)
        J = Tc.transpose(0, 2, 1) @ gref
        return vals, gref, y, J

    def eval(self, elems, lam):
        """Deformed points and Jacobians at barycentric points of elements."""
        _, _, y, J = self._jacobian(elems, lam)
        return y, J

    def lift(self, elems, lam) -> Lift:
        """Push barycentric points of elements through Theta.

        With J = DTheta, physical gradients pick up J^-T, a flat interface
        measure picks up det(J) * |J^-T n-hat| and the deformed unit normal
        is J^-T n-hat normalised, n-hat being the normal of the linear cut.
        Raises MappingInvertibilityError where det(J) <= 0.
        """
        elems = np.asarray(elems, dtype=np.int64)
        vals, gref, y, J = self._jacobian(elems, lam)
        det = np.linalg.det(J)
        if np.any(det <= 0.0):
            raise MappingInvertibilityError("deformation not invertible (mesh too coarse)")
        invJ = np.linalg.inv(J)
        grads = gref @ invJ
        N = (self.n_lin[elems][:, None, :] @ invJ)[:, 0, :]
        nn = np.linalg.norm(N, axis=-1)
        return Lift(vals, grads, y, det, N / nn[:, None], nn)

    def normals(self, elems, lam):
        """Unit normal of the deformed surface at barycentric points of elements."""
        return self.lift(elems, lam).nh

    def max_displacement(self) -> float:
        return float(np.linalg.norm(self.displacement, axis=-1).max(initial=0.0))


def build_theta(mesh: ActiveMesh, dls: DiscreteLevelSet, delta=None) -> IsoMapping:
    """Assemble the nodal deformation field by patch-averaging element images.

    For k = 1 the deformation is the identity by construction; the root
    solve is skipped and a zero displacement field is returned.
    """
    if dls.mesh is not mesh:
        raise ValueError("level set was interpolated on a different mesh")
    if mesh.k == 1:
        return IsoMapping(mesh, np.zeros((mesh.ndofs, 3)))
    E, NB = mesh.elem_dofs.shape
    elems = np.repeat(np.arange(E, dtype=np.int64), NB)
    x = mesh.dof_points[mesh.elem_dofs].reshape(E * NB, 3)
    psi = psi_h(mesh, dls, elems, x, delta)
    mean = project_average(mesh, psi.reshape(E, NB, 3))
    return IsoMapping(mesh, mean - mesh.dof_points)


def facet_jump_psi(mesh: ActiveMesh, dls: DiscreteLevelSet, degree: int = 4) -> float:
    """Max two-sided mismatch of the element deformations across interior facets."""
    from .cutquad import triangle_rule

    fs = mesh.facets
    if len(fs) == 0:
        return 0.0
    lam, _ = triangle_rule(degree)
    pts = np.einsum("qm,fmi->fqi", lam, fs.tri_points).reshape(-1, 3)
    q = len(lam)
    sides = []
    for s in range(2):
        elems = np.repeat(fs.elems[:, s], q)
        sides.append(psi_h(mesh, dls, elems, pts))
    return float(np.linalg.norm(sides[0] - sides[1], axis=-1).max())


def normal_deviation(mesh: ActiveMesh, dls: DiscreteLevelSet, mapping: IsoMapping, levelset, degree=None) -> float:
    """Max deviation of the discrete unit normal from the exact surface normal."""
    from .assembly import SurfaceData

    surf = SurfaceData.build(mesh, dls, mapping, degree if degree is not None else 2 * mesh.k)
    n_exact = levelset.grad_phi(surf.y)
    n_exact = n_exact / np.linalg.norm(n_exact, axis=-1, keepdims=True)
    return float(np.linalg.norm(surf.nh - n_exact, axis=-1).max())
