"""Convergence and conditioning studies with CSV/Markdown reporting.

A convergence study runs the full pipeline (mesh, interpolation,
deformation, assembly, solve, error measurement) over a sequence of
uniformly refined meshes and reports error columns with estimated
orders.  A conditioning study sweeps interface shifts on a fixed mesh
and tabulates spectral bounds of the stabilized operator on the
constraint hyperplane.  All output is deterministic for a fixed
configuration, including iteration counts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import vtkio
from .assembly import StabConfig, assemble_system
from .levelset import BENCHMARKS, make_benchmark, shifted_plane, ZeroBenchmark
from .mapping import build_theta
from .mesh import ActiveMesh, MeshParams
from .metrics import EigenEstimateError, compute_errors, eoc, estimate_condition
from .reference import interpolate
from .solver import solve_constrained

STAB_ALIASES = {
    "none": "none",
    "ghost": "ghost_penalty",
    "fgs": "full_gradient_surface",
    "fgv": "full_gradient_volume",
    "nv": "normal_volume",
}

_LEVEL_CAPS = {1: 4, 2: 4, 3: 3, 4: 2, 5: 2}


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class StudyConfig:
    benchmark: str = "torus"
    k: int = 1
    levels: int = 3
    base_n: int = 16
    stab: str = "normal_volume"
    rho: object = None
    tol: float = 1e-9
    out: str = "study_out"
    export_vtk: bool = False
    export_matrix: bool = False
    conditioning: bool = False
    shifts: tuple = (0.5, 1e-1, 1e-3, 1e-5)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.benchmark, str) or self.benchmark not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        self.stab = STAB_ALIASES.get(self.stab, self.stab)
        if isinstance(self.rho, list):
            self.rho = tuple(self.rho)
        if not isinstance(self.shifts, (list, tuple)) or not all(
            type(s) in (int, float) for s in self.shifts
        ):
            raise ValueError(f"shifts must be a list of numbers, got {self.shifts!r}")
        self.shifts = tuple(float(s) for s in self.shifts)
        ints = ("k", "levels", "base_n", "seed")
        for name in ints + ("export_vtk", "export_matrix", "conditioning"):
            val = getattr(self, name)
            if type(val) is not (int if name in ints else bool):  # bool is not taken for int
                raise ValueError(f"{name} must be {'an integer' if name in ints else 'true or false'}, got {val!r}")
        if self.k not in _LEVEL_CAPS:
            raise ValueError(f"polynomial degree must be 1..5, got {self.k}")
        cap = _LEVEL_CAPS[self.k]
        if not 1 <= self.levels <= cap:
            raise ValueError(f"levels for k={self.k} must be in 1..{cap}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.base_n < 2:
            raise ValueError("base_n must be at least 2")
        if not isinstance(self.out, (str, os.PathLike)) or not os.fspath(self.out):
            raise ValueError(f"out must be a directory path, got {self.out!r}")
        self.out = os.fspath(self.out)
        if os.path.exists(self.out) and not os.path.isdir(self.out):
            raise ValueError(f"out must be a directory path, {self.out!r} exists and is not a directory")
        self.tol = float(self.tol)
        if not 0.0 < self.tol < 1.0:  # also rejects nan
            raise ValueError(f"tol must lie strictly inside (0, 1), got {self.tol}")
        # validates variant and rho shape
        StabConfig(self.stab, self.rho)
        # the conditioning sweep skips ghost_penalty for k > 1 instead
        if self.stab == "ghost_penalty" and self.k > 1 and not self.conditioning:
            raise ValueError("ghost_penalty is unsupported for k > 1 (no higher-order theory)")
        if self.conditioning and (self.export_vtk or self.export_matrix):
            raise ValueError("the conditioning sweep writes no VTK or matrix files; drop export_vtk and export_matrix")
        if self.conditioning and not self.shifts:
            raise ValueError("shifts must not be empty for the conditioning sweep")
        if self.conditioning and not all(0.0 < s < 1.0 for s in self.shifts):
            raise ValueError("shift fractions must lie strictly inside (0, 1)")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rho"] = list(self.rho) if isinstance(self.rho, tuple) else self.rho
        d["shifts"] = list(self.shifts)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "StudyConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf"
        return f"{x:.5e}"
    return str(x)


def _fmt_eoc(x) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return ""
    return f"{x:.1f}"


@dataclass
class StudyResult:
    config: StudyConfig
    columns: list
    rows: list
    kind: str = "convergence"

    def csv_text(self) -> str:
        lines = [f"# tracefem {self.kind} study"]
        lines.append("# config: " + json.dumps(self.config.to_dict(), sort_keys=True))
        if self.kind == "convergence":
            stab = StabConfig(self.config.stab, self.config.rho)
            rhos = [
                _fmt(stab.resolve_rho(MeshParams(self.config.base_n * 2**l).h, self.config.k))
                for l in range(self.config.levels)
            ]
            lines.append("# rho_s per level: " + ",".join(rhos))
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def markdown_text(self) -> str:
        lines = [
            "| " + " | ".join(self.columns) + " |",
            "|" + "|".join("---" for _ in self.columns) + "|",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(v if v else " " for v in row) + " |")
        return "\n".join(lines) + "\n"

    def write(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        base = os.path.join(outdir, self.kind)
        with open(base + ".csv", "w") as fh:
            fh.write(self.csv_text())
        with open(base + ".md", "w") as fh:
            fh.write(self.markdown_text())
        return base + ".csv", base + ".md"


def _level(levelset, n: int, k: int):
    """The first three stages of a level: mesh, interpolate and Theta; returns (mesh, dls, mapping)."""
    mesh = _stage("mesh", ActiveMesh.build, _stage("mesh", MeshParams, n), levelset, k)
    dls = _stage("interpolate", interpolate, levelset, mesh)
    return mesh, dls, _stage("mapping", build_theta, dls)


def _export(cfg: StudyConfig, tag: str, mapping, system):
    """Write the level's VTK and Matrix Market files that cfg asks for."""
    if cfg.export_vtk:
        os.makedirs(cfg.out, exist_ok=True)
        vtkio.export_level(cfg.out, tag, mapping)
    if cfg.export_matrix:
        from scipy.io import mmwrite

        os.makedirs(cfg.out, exist_ok=True)
        mmwrite(os.path.join(cfg.out, f"system_{tag}.mtx"), system.S)
        mmwrite(os.path.join(cfg.out, f"constraint_{tag}.mtx"), system.c[:, None])


def _level_pipeline(cfg: StudyConfig, problem, n: int, tag: str):
    mesh, dls, mapping = _level(problem.levelset, n, cfg.k)
    stab = StabConfig(cfg.stab, cfg.rho)
    system = _stage("assemble", assemble_system, mesh, dls, mapping, problem, stab)
    _stage("export", _export, cfg, tag, mapping, system)
    return mapping, system


CONV_COLUMNS = [
    "level",
    "n",
    "h",
    "ndofs",
    "e_dist",
    "eoc_dist",
    "e_l2",
    "eoc_l2",
    "e_h1t",
    "eoc_h1t",
    "e_h1n",
    "eoc_h1n",
    "n_its",
]


def _convergence_level(cfg: StudyConfig, problem, level: int) -> dict:
    """Solve and measure one level; its system is freed before the errors stage, its mesh and mapping on return, before the next level is built."""
    n = cfg.base_n * 2**level
    mapping, system = _level_pipeline(cfg, problem, n, f"l{level}")
    rep = _stage("solve", solve_constrained, system.S, system.c, system.f, tol=cfg.tol)
    # alive, S, c and f would be the errors stage's peak: torus k=3 n=20
    # peaks there at 25.7 MiB traced with them, 14.4 MiB without
    del system
    err = _stage("errors", compute_errors, mapping, rep.u, problem)
    return dict(
        level=level,
        n=n,
        h=err.h,
        ndofs=err.ndofs,
        e_dist=err.e_dist,
        e_l2=err.e_l2,
        e_h1t=err.e_h1t,
        e_h1n=err.e_h1n,
        n_its=rep.iterations,
    )


def run_convergence(cfg: StudyConfig):
    """Refinement study; returns (StudyResult, reports) and checks solver health."""
    problem = make_benchmark(cfg.benchmark)
    reports = [_convergence_level(cfg, problem, level) for level in range(cfg.levels)]
    keys = ("e_dist", "e_l2", "e_h1t", "e_h1n")
    orders = {key: [None] + eoc([r[key] for r in reports]) for key in keys}
    rows = []
    for i, r in enumerate(reports):
        row = [str(r["level"]), str(r["n"]), _fmt(r["h"]), str(r["ndofs"])]
        for key in keys:
            row += [_fmt(r[key]), _fmt_eoc(orders[key][i])]
        row.append(str(r["n_its"]))
        rows.append(row)
    return StudyResult(cfg, CONV_COLUMNS, rows, "convergence"), reports


COND_COLUMNS = ["eps", "variant", "lambda_max", "lambda_min", "cond", "n_its"]


def _conditioning_variants(k: int):
    """Every variant, in the sweep's order; ghost_penalty only for k = 1."""
    variants = ["none", "normal_volume", "full_gradient_surface", "full_gradient_volume"]
    if k == 1:
        variants.append("ghost_penalty")
    return variants


def _condition(S, c):
    """(lambda_max, lambda_min, singular) of S on c-perp; a failed estimate gives nan, a singular one cond inf.

    lambda_min at or below n eps lambda_max (numpy's matrix_rank
    tolerance) is singular on c-perp, where PCG can only run to its cap.
    """
    try:
        lmax, lmin = estimate_condition(S, c)
    except EigenEstimateError:
        return float("nan"), float("nan"), False
    return lmax, lmin, lmin <= len(c) * np.finfo(float).eps * lmax


def _conditioning_shift(cfg: StudyConfig, eps: float, rng) -> list:
    """Estimate and solve every variant at one shift; its mesh, mapping and systems are freed on return, before the next shift is built.

    The first variant, 'none', is the base of all others but ghost_penalty
    (assemble_system), so a shift builds one Pattern and one surface pass of A.
    """
    ls = _stage("mesh", shifted_plane, eps, cfg.base_n)
    problem = ZeroBenchmark(ls)
    mesh, dls, mapping = _level(ls, cfg.base_n, cfg.k)
    synth = rng.standard_normal(mesh.ndofs)
    reports, base = [], None
    for variant in _conditioning_variants(cfg.k):
        stab = StabConfig(variant, cfg.rho if variant == cfg.stab else None)
        shared = None if variant == "ghost_penalty" else base
        system = _stage("assemble", assemble_system, mesh, dls, mapping, problem, stab, base=shared)
        base = base or system
        lmax, lmin, singular = _stage("condition", _condition, system.S, system.c)
        cond = float("inf") if singular else lmax / lmin
        n_its = -1
        # a singular row is not solved; a failed estimate gives cond nan and is still solved
        if not singular:
            f = synth - synth.sum() / system.c.sum() * system.c
            rep = _stage("solve", solve_constrained, system.S, system.c, f, tol=cfg.tol, raise_on_fail=False)
            n_its = rep.iterations if rep.converged else -1
        reports.append(dict(eps=eps, variant=variant, lambda_max=lmax, lambda_min=lmin, cond=cond, n_its=n_its))
    return reports


def run_conditioning(cfg: StudyConfig):
    """Interface-shift sweep on a fixed mesh; never aborts on estimate failures."""
    rng = np.random.default_rng(cfg.seed)
    reports = [r for eps in cfg.shifts for r in _conditioning_shift(cfg, eps, rng)]
    rows = [
        [_fmt(r["eps"]), r["variant"], _fmt(r["lambda_max"]), _fmt(r["lambda_min"]), _fmt(r["cond"]), str(r["n_its"])]
        for r in reports
    ]
    # the sweep ignores cfg.benchmark; the header names the surface it ran on
    return StudyResult(replace(cfg, benchmark="plane"), COND_COLUMNS, rows, "conditioning"), reports


def run_study(cfg: StudyConfig):
    start = time.time()
    if cfg.conditioning:
        result, reports = run_conditioning(cfg)
    else:
        result, reports = run_convergence(cfg)
    paths = _stage("write", result.write, cfg.out)
    return result, reports, paths, time.time() - start
