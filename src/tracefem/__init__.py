"""Isoparametric trace finite elements for PDEs on level-set surfaces."""

from . import backends
from .assembly import AssembledSystem, StabConfig, assemble_s, assemble_system
from .levelset import Plane, Sphere, SphereBenchmark, Torus, TorusBenchmark, ZeroBenchmark, make_benchmark, shifted_plane
from .mapping import IsoMapping, build_theta
from .mesh import ActiveMesh, MeshParams
from .metrics import ErrorReport, compute_errors, eoc, estimate_condition
from .reference import DiscreteLevelSet, interpolate
from .solver import SolveReport, SolverDivergenceError, pcg, solve_constrained

__version__ = "0.1.0"
__all__ = [
    "AssembledSystem",
    "ActiveMesh",
    "DiscreteLevelSet",
    "ErrorReport",
    "IsoMapping",
    "MeshParams",
    "Plane",
    "SolveReport",
    "Sphere",
    "SphereBenchmark",
    "StabConfig",
    "Torus",
    "TorusBenchmark",
    "ZeroBenchmark",
    "assemble_s",
    "assemble_system",
    "backends",
    "build_theta",
    "compute_errors",
    "eoc",
    "estimate_condition",
    "interpolate",
    "make_benchmark",
    "pcg",
    "shifted_plane",
    "solve_constrained",
    "SolverDivergenceError",
]
