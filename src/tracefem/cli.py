"""Command line interface for convergence and conditioning studies.

Configuration is read from an optional JSON file (--config) mirroring
the StudyConfig fields; explicit command line flags override file
values.  Exit codes: 0 success, 1 configuration error, 2 pipeline
failure (message is tagged with the failing stage).
"""

from __future__ import annotations

import argparse
import json
import sys

from .levelset import BENCHMARKS
from .study import STAB_ALIASES, StudyConfig, StageError, run_study


def _parse_rho(text: str):
    if text in ("hinv", "h_inv"):
        return "h_inv"
    if text in ("hk4", "h_times_k4"):
        return "h_times_k4"
    if text.startswith("custom:"):
        body = text[len("custom:") :]
        try:
            pre, expo = (float(v) for v in body.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "custom rho must look like custom:PREFACTOR,EXPONENT (rho = PREFACTOR * h^EXPONENT)"
            )
        return ("custom", pre, expo)
    raise argparse.ArgumentTypeError(f"unknown rho {text!r} (use hinv, hk4 or custom:PRE,EXP)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tracefem",
        description="Trace finite element studies for the Laplace-Beltrami equation on level-set surfaces.",
    )
    p.add_argument("--config", help="JSON file with StudyConfig fields; flags override it")
    # every flag after --config sets the StudyConfig field of its dest
    p.add_argument("--benchmark", choices=sorted(BENCHMARKS), help="surface and exact solution")
    p.add_argument("--k", type=int, help="polynomial degree 1..5")
    p.add_argument("--levels", type=int, help="number of uniform refinements")
    p.add_argument("--base-n", type=int, dest="base_n", help="cells per axis on the coarsest level")
    p.add_argument("--stab", choices=list(STAB_ALIASES), help="stabilization variant")
    p.add_argument("--rho", type=_parse_rho, help="stabilization scaling: hinv, hk4 or custom:PRE,EXP")
    p.add_argument("--tol", type=float, help="relative solver tolerance")
    p.add_argument("--out", help="output directory")
    p.add_argument("--export-vtk", action="store_true", default=None, help="write legacy VTK files per level")
    p.add_argument("--export-matrix", action="store_true", default=None, help="write Matrix Market files per level")
    p.add_argument("--conditioning", action="store_true", default=None, help="run the interface-shift conditioning sweep")
    p.add_argument("--shifts", help="comma-separated shift fractions for --conditioning")
    p.add_argument("--seed", type=int, help="seed for synthetic right-hand sides")
    return p


def config_from_args(argv=None) -> StudyConfig:
    args = vars(build_parser().parse_args(argv))
    path = args.pop("config")
    data: dict = {}
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: the top level must be a JSON object")
    if args["shifts"] is not None:
        args["shifts"] = [float(s) for s in args["shifts"].split(",")]
    data.update((key, val) for key, val in args.items() if val is not None)
    return StudyConfig.from_dict(data)


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: [config] {exc}", file=sys.stderr)
        return 1
    try:
        result, _, paths, elapsed = run_study(cfg)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.markdown_text(), end="")
    print(f"wrote {paths[0]} and {paths[1]} ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
