"""The interpolate stage: the nodal interpolant phi_h of the level set.

The P^k basis it is read with lives in backends (eval_basis on the nodes
multi_indices(k) / k), the nodes' points in the mesh (dof_points).
"""

from __future__ import annotations

import numpy as np


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
