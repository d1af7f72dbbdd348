"""In-memory span tracer installed around tracefem's public functions.

The tracer wraps the calls that ``study.run_study`` makes into each
module, from outside the package: nothing under ``src/`` knows it is
being traced.  Every span records its name, start, end and parent; the
spans stay in memory and are written out once the study has returned.

Span names are the per-layer metric names without their ``_s``/``.s``
suffix.  A span's self time (its duration less its children's) goes to
its own metric; a span without one (the facet build) and an
``assembly.*`` span opened outside the assembly stage (``compute_errors``
builds its own surface rule) are folded into their parent's metric.  The
root span's self time is ``study.self_s``, so all self times add up to
the traced study.  Checks run in ``bench.check`` spans, which count for
no layer.
"""

from __future__ import annotations

import inspect
import resource
import time

import checks

ROOT = "study"
CHECK = "bench.check"

TIME_METRICS = (
    "mesh.build_s",
    "interpolate.s",
    "cutquad.extract_s",
    "mapping.build_s",
    "assembly.s",
    "assembly.surface_rule_s",
    "assembly.volume_rule_s",
    "assembly.accumulate_s",
    "assembly.stab_s",
    "kernel.eval_basis_s",
    "kernel.solve_dh_s",
    "kernel.accumulate_sym_s",
    "solve.s",
    "errors.s",
    "condition.s",
    "study.write_s",
    "study.self_s",
)
SUM_COUNTS = (
    "mesh.elements",
    "mesh.ndofs",
    "mesh.facets",
    "cutquad.triangles",
    "mapping.points",
    "assembly.surface_points",
    "assembly.volume_points",
    "assembly.nnz",
    "kernel.eval_basis_points",
    "kernel.solve_dh_points",
    "solve.iterations",
    "solve.capped_iterations",
    "condition.calls",
)
MAX_COUNTS = ("assembly.maxrss_mb", "errors.maxrss_mb")


def _metric(name: str) -> str:
    return name + ("_s" if "." in name else ".s")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, counts]
        self.stack = []
        self.failures = []
        self.variant = None   # stabilization of the latest assembly
        self.eig_checked = False

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int, counts=None) -> None:
        self.spans[idx][2] = time.perf_counter()
        if counts:
            self.spans[idx][4] = counts
        self.stack.pop()

    def wrap(self, owner, attr, name, counts=None, check=None):
        """Replace owner.attr by a spanned call; counts(result, args) -> dict."""
        static = inspect.getattr_static(owner, attr)
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, counts(result, args) if counts else None)
            if check is not None:
                idx = self.open(CHECK)
                try:
                    check(result, args, kwargs)
                finally:
                    self.close(idx)
            return result

        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(lambda cls, *a, **kw: spanned(*a, **kw)))
        else:
            setattr(owner, attr, spanned)

    # -- checks made with the benchmark's own arithmetic -------------------

    def _check_solve(self, rep, args, kwargs):
        S, c, f = args[:3]
        self.failures += checks.system_failures(S, c, f, rep.u, kwargs["tol"], rep.converged)

    def _check_condition(self, result, args, kwargs):
        if self.variant != "normal_volume" or self.eig_checked:
            return
        self.eig_checked = True
        S, c = args[:2]
        self.failures += checks.eigen_failures(S, c, *result)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from tracefem import assembly, backends, mesh, study

        kern = backends.active()
        self.wrap(mesh.ActiveMesh, "build", "mesh.build",
                  lambda m, a: {"mesh.elements": m.nelems, "mesh.ndofs": m.ndofs})
        self.wrap(mesh.FacetSet, "__init__", "mesh.facets",
                  lambda _, a: {"mesh.facets": len(a[0])})
        self.wrap(study, "interpolate", "interpolate")
        self.wrap(study, "build_theta", "mapping.build")
        self.wrap(assembly, "extract_cuts", "cutquad.extract",
                  lambda r, a: {"cutquad.triangles": len(r[0])})
        self.wrap(assembly.SurfaceData, "build", "assembly.surface_rule",
                  lambda r, a: {"assembly.surface_points": len(r.elems)})
        self.wrap(assembly.VolumeData, "build", "assembly.volume_rule",
                  lambda r, a: {"assembly.volume_points": len(r.elems)})
        self.wrap(assembly.SurfaceData, "accumulate", "assembly.accumulate")
        self.wrap(assembly.VolumeData, "accumulate", "assembly.accumulate")
        self.wrap(assembly, "assemble_s", "assembly.stab")
        self.wrap(kern, "eval_basis", "kernel.eval_basis",
                  lambda r, a: {"kernel.eval_basis_points": len(a[1])})
        self.wrap(kern, "solve_dh", "kernel.solve_dh",
                  lambda r, a: {"kernel.solve_dh_points": len(a[2])})
        self.wrap(kern, "accumulate_sym", "kernel.accumulate_sym")

        def assembled(system, args):
            self.variant = args[4].variant
            return {"assembly.nnz": system.S.nnz, "assembly.maxrss_mb": _maxrss_mb()}

        self.wrap(study, "assemble_system", "assembly", assembled)
        self.wrap(study, "solve_constrained", "solve",
                  lambda rep, a: {"solve.iterations": rep.iterations,
                                  "solve.capped_iterations": 0 if rep.converged else rep.iterations},
                  check=self._check_solve)
        self.wrap(study, "compute_errors", "errors",
                  lambda r, a: {"errors.maxrss_mb": _maxrss_mb()})
        self.wrap(study, "estimate_condition", "condition",
                  lambda r, a: {"condition.calls": 1}, check=self._check_condition)
        self.wrap(study.StudyResult, "write", "study.write")

    # -- aggregation -------------------------------------------------------

    def layers(self) -> dict:
        """Per-layer metrics: self times by span, counts summed (or maxed)."""
        out = dict.fromkeys(TIME_METRICS + SUM_COUNTS + MAX_COUNTS, 0.0)
        n = len(self.spans)
        stage, metric, child_time, folded = [None] * n, [None] * n, [0.0] * n, [False] * n
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            if parent < 0:
                metric[i] = "study.self_s"
                continue
            child_time[parent] += t1 - t0
            stage[i] = name if parent == 0 else stage[parent]
            own = _metric(name)
            folded[i] = name.startswith("assembly.") and stage[i] != "assembly"
            metric[i] = own if own in out and not folded[i] else metric[parent]
        for i, (name, t0, t1, parent, counts) in enumerate(self.spans):
            if name == CHECK:
                continue
            out[metric[i]] += (t1 - t0) - child_time[i]
            if folded[i]:
                continue
            for key, val in counts.items():
                out[key] = max(out[key], val) if key in MAX_COUNTS else out[key] + val
            if name == "kernel.solve_dh" and stage[i] == "mapping.build":
                out["mapping.points"] += counts["kernel.solve_dh_points"]
        out["solve.s_per_iteration"] = out["solve.s"] / max(out["solve.iterations"], 1)
        return out

    def check_time(self) -> float:
        return sum(t1 - t0 for name, t0, t1, _, _ in self.spans if name == CHECK)

    def dump(self) -> list:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": a - t0, "end": b - t0, "parent": p, "counts": c}
            for n, a, b, p, c in self.spans
        ]
