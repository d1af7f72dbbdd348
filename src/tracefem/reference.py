"""P^k Lagrange reference element on the tetrahedron and nodal interpolation.

Nodes are the equispaced barycentric lattice points alpha/k; the basis is
the product form of one-dimensional factors, which is exactly Kronecker
at the nodes and extends polynomially outside the element (needed by the
deformation search, which evaluates element polynomials off the element).
"""

from __future__ import annotations

import numpy as np

from . import backends

MAX_DEGREE = 5


class ReferenceElement:
    """Degree-k Lagrange element on the reference tetrahedron, k = 1..5."""

    def __init__(self, k: int):
        if not 1 <= k <= MAX_DEGREE:
            raise ValueError(f"polynomial degree must be in 1..{MAX_DEGREE}, got {k}")
        self.k = k
        self.multi_indices = backends.multi_indices(k)
        self.nodes_bary = self.multi_indices / float(k)
        self.ndofs = len(self.multi_indices)

    def eval(self, lam):
        """Basis values and barycentric gradients at barycentric points."""
        return backends.eval_basis(self.k, lam)


def physical_gradients(dlam: np.ndarray, bary_grad: np.ndarray) -> np.ndarray:
    """Chain rule from barycentric to physical gradients.

    dlam: (..., NB, 4) barycentric basis gradients; bary_grad: (..., 4, 3)
    gradients of the barycentric coordinates (rows of the affine map).
    Leading dimensions broadcast, so points shared by several elements
    need only one row of dlam.
    """
    return dlam @ bary_grad


class DiscreteLevelSet:
    """Nodal interpolant phi_h of a level-set function on the active mesh.

    Holds one value per active degree of freedom; per-element coefficient
    rows come from the mesh dof map.  The piecewise-linear vertex
    interpolant phi-hat lives on the mesh itself (perturbed vertex
    values), so this class only adds the degree-k data.
    """

    def __init__(self, mesh, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (mesh.ndofs,):
            raise ValueError("value vector does not match the mesh dof count")
        if not np.all(np.isfinite(values)):
            raise ValueError("level-set nodal values must be finite")
        self.mesh = mesh
        self.values = values


def interpolate(levelset, mesh) -> DiscreteLevelSet:
    """Nodal interpolation of phi at every P^k node of the active elements."""
    return DiscreteLevelSet(mesh, levelset.phi(mesh.dof_points))
