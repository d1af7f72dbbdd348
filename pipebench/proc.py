"""One benchmark process: set up, run one study through run_study, report.

Started by run.py as ``python3 proc.py SPEC`` with SPEC a JSON object:
``spawned`` (the parent's time.monotonic() just before the start),
``mode`` ('setup', 'run' or 'trace') and ``config`` (StudyConfig
fields; a trace goes next to the CSV, in ``out``).  The last line of
standard output is a JSON object with the measurements.  CLOCK_MONOTONIC is one
clock for the whole machine, so set-up time spans the process start.
"""

import json
import os
import resource
import sys
import time


def main(spec: dict) -> dict:
    from tracefem.study import StudyConfig, run_study

    cfg = StudyConfig.from_dict(spec["config"])
    tracer = None
    if spec["mode"] == "trace":
        from spans import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - spec["spawned"]
    if spec["mode"] == "setup":
        return {"setup_s": setup_s}

    cpu0, t0 = time.process_time(), time.monotonic()
    if tracer is not None:
        root = tracer.open(ROOT)
    _, _, paths, _ = run_study(cfg)
    if tracer is not None:
        tracer.close(root)
    wall, cpu = time.monotonic() - t0, time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "time_to_solution_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csv": paths[0],
    }
    if tracer is not None:
        # a traced study pays for its own checks; they are no layer's time
        result["time_to_solution_s"] -= tracer.check_time()
        result["layers"] = tracer.layers()
        result["failures"] = tracer.failures
        with open(os.path.join(cfg.out, "trace.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
