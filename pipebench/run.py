"""Pipeline benchmark: one tracefem study per process, timed end to end.

Usage (from the repository root):

    python3 pipebench/run.py --workload torus-k3-nv --seed 1 --seconds 30 --trace 0

Each round starts a fresh process (proc.py) that imports tracefem from
``src/``, builds a StudyConfig and calls ``study.run_study``, the call
the ``tracefem`` CLI makes.  Rounds repeat while another one still ends
within ``--seconds`` (there is at least one).  The run reports the mean
time, CPU time and peak RSS of its rounds; set-up-only processes between
the rounds measure ``setup_s`` (a median).  With ``--trace 1`` each
round is an untraced and a traced process, and the run reports the mean
per-layer metrics of the traced ones (spans.py).
Every round's CSV is checked by checks.py; a failed check prints the
result with ``"correct": false`` and exits 1.  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

# One BLAS thread: PCG's dot products go through OpenBLAS, whose thread
# count changes both the timing and the iteration count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2      # per round
CHILD_TIMEOUT_S = 150.0

WORKLOADS = {
    # high order: the mapping's root solves, the degree-6 volume rule and
    # the memory peak; base n=8 fails in [mapping], n=12 needs ~1.5 GiB
    "torus-k3-nv": {
        "config": {"benchmark": "torus", "k": 3, "base_n": 10, "levels": 2, "stab": "normal_volume"},
        "gates": {"e_dist": 3.5, "e_l2": 3.5, "e_h1t": 2.5},
    },
    # control: identity mapping, no volume rule, the most elements;
    # L2 is pre-asymptotic here and e_h1n is not controlled by the ghost penalty
    "torus-k1-ghost": {
        "config": {"benchmark": "torus", "k": 1, "base_n": 32, "levels": 2, "stab": "ghost_penalty"},
        "gates": {"e_dist": 1.5, "e_h1t": 0.5},
    },
    # the interface-shift sweep: four variants per shift, dense condition estimates
    "plane-k2-cond": {
        "config": {"conditioning": True, "k": 2, "base_n": 8, "shifts": [0.5, 1e-1, 1e-3, 1e-5]},
    },
}


def _env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(mode: str, config: dict, out: Path, deadline: float) -> dict:
    """Start proc.py, wait for it and return its JSON result."""
    spec = {"mode": mode, "config": dict(config, out=str(out))}
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "proc.py"), json.dumps(spec)],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"pipebench: a {mode} process did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"pipebench: the {mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def output_failures(workload: dict, config: dict, csv_text: str) -> list:
    rows = checks.parse_rows(csv_text)
    if config.get("conditioning"):
        return checks.conditioning_failures(rows, config["shifts"])
    return checks.convergence_failures(rows, workload["gates"], config["levels"])


def operations(config: dict) -> int:
    """Study levels of a convergence study, (shift, variant) rows of a sweep."""
    if config.get("conditioning"):
        return 4 * len(config["shifts"])  # four variants for k >= 2
    return config["levels"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "tracefem" / "study.py").is_file():
        print(f"pipebench: no tracefem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workload = WORKLOADS[args.workload]
    # the seed drives the sweep's synthetic right-hand sides; the torus studies ignore it
    config = dict(workload["config"], seed=args.seed)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    # the first process after a checkout compiles bytecode; no user pays that per run
    spawn("setup", config, out, deadline)
    # set-up probes go between the rounds, so both sample the same stretch of time;
    # rounds (with --trace 1, an untraced and a traced one) repeat while one more
    # of the same length still ends within --seconds
    kinds = ["run", "trace"] if args.trace else ["run"]
    setups, rounds, start = [], [], time.monotonic()
    while True:
        t0 = time.monotonic()
        for kind in kinds:
            setups += [spawn("setup", config, out, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            rdir = out / f"round{len(rounds)}"
            rdir.mkdir(exist_ok=True)
            res = spawn(kind, config, rdir, deadline)
            res["csv_text"] = Path(res["csv"]).read_text()
            rounds.append(res)
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            break

    failures = []
    for res in rounds:
        failures += output_failures(workload, config, res["csv_text"])
        failures += res.get("failures", [])
        if checks.data_rows(res["csv_text"]) != checks.data_rows(rounds[0]["csv_text"]):
            failures.append("CSV data rows differ between rounds of the same configuration")
    for msg in dict.fromkeys(failures):
        print(f"check failed: {msg}", file=sys.stderr)

    setups += [r["setup_s"] for r in rounds]
    if args.trace:
        traced = [r for r in rounds if "layers" in r]
        plain = [r for r in rounds if "layers" not in r]
        metrics = {k: statistics.fmean(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = statistics.fmean(
            r["time_to_solution_s"] for r in traced
        ) - statistics.fmean(r["time_to_solution_s"] for r in plain)
    else:
        # of min, median and mean over the rounds, the mean was steadiest
        # against drifting host speed (README.md, "Steadiness and bounds")
        metrics = {
            key: statistics.fmean(r[key] for r in rounds)
            for key in ("time_to_solution_s", "cpu_s", "peak_rss_mb")
        }
        metrics["setup_s"] = statistics.median(setups)
    result = {
        "correct": not failures,
        "attempted": operations(config) * len(rounds),
        "failed": 0,  # a study that raises ends the run with a non-zero exit
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(dict(result, rounds=[
        {k: v for k, v in r.items() if k != "csv_text"} for r in rounds], setups=setups), indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
