"""One pass of one workload, in a fresh interpreter, as each CLI command runs.

    python3 bench/worker.py SPEC.json

``run.py`` writes the spec (workload, seed, input and work paths, whether to
trace and whether to check) and reads the result file the pass writes.
Each pass runs in its own process so that passes are independent samples
and the peak RSS is that of a process that ran only this workload.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy

from layers import layer_metrics
from spans import Recorder
from workloads import PIPELINES, replica_digest, run_checks


def run_pass(spec: dict) -> dict:
    rec = Recorder(spec["run_id"])
    if spec["traced"]:
        rec.install()
    out, error = None, None
    try:
        with rec.span("workload"):
            out = PIPELINES[spec["workload"]](rec, Path(spec["input"]),
                                              Path(spec["work"]), spec["seed"])
    except Exception:  # a failed operation is counted, not fatal to the run
        error = traceback.format_exc()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec.uninstall()

    stages = [s for s in rec.spans if s["name"].startswith("stage.")]
    failed_outside = error is not None and not any(s["error"] for s in stages)
    result = {
        "run_id": spec["run_id"],
        "traced": spec["traced"],
        "error": error,
        "ops": len(stages) + failed_outside,
        "ops_failed": int(error is not None),
        "wall_s": rec.durations("workload")[0],
        "stages": {},
        "peak_rss_mb": rss_mb,
        "numpy": numpy.__version__,
    }
    for s in stages:
        result["stages"].setdefault(s["name"], []).append(s["end"] - s["start"])
    if out is None:
        return result

    result["events"] = len(out.graph)
    result["digests"] = [replica_digest(r) for r in out.replicas]
    result["count_totals"] = {str(l): c.total for l, c in out.counts.items()}
    if spec["traced"]:
        result["layers"] = layer_metrics(rec)
        result["spans"] = rec.serializable()
    if spec["check"]:
        started = perf_counter()
        try:
            checks = run_checks(spec["workload"], out)
        except Exception:  # a check that raises is a failed check
            checks = [("checks.completed", False, traceback.format_exc())]
        result["checks"] = checks
        result["check_s"] = perf_counter() - started
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run_pass(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
