"""Benchmark of the motifgen pipeline on the desk-scale surrogate stream.

    python3 bench/run.py --workload desk60k-pipeline --seed 20260810 \
        --seconds 58 --trace 0

Builds the workload's input from ``--seed`` (untimed), times a fresh
interpreter up to a ready CLI (``setup_s``), then runs passes of the
workload's timed section, each in its own interpreter, until ``--seconds``
is used up (two passes at least; the last pass may start while at least
half a pass is left, so on average the passes end at ``--seconds``). The
first pass also checks the outputs; the passes are compared with each
other for seeded determinism. With
``--trace 0`` the last stdout line holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced passes alternate
and it holds the per-layer metrics. Everything runs sequentially with
``MOTIFGEN_WORKERS`` unset. Inputs, outputs and a result file with the
environment, every pass and every span go under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from inputs import DEFAULT_SEED, WORKLOAD_INPUTS, desk_scale_edges

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES_PER_PASS = 2  # spread over the run, not bunched at its start
MIN_PASSES = 2
RUN_LIMIT_S = 165  # a run must end within 180 s, whatever a pass does
SETUP_CODE = ("from motifgen.cli import main; "
              "main(['--version'], prog_name='motifgen')")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MOTIFGEN_WORKERS", None)  # sequential counting only
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def environment(seed: int) -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # a checkout without git history
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def setup_probe(env: dict) -> float:
    """Wall time of a fresh interpreter up to a CLI that answered."""
    started = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)
    return perf_counter() - started


def run_pass(spec: dict, env: dict, timeout: float) -> tuple[dict | None, float]:
    """One workload pass in a fresh interpreter: (result or None, seconds)."""
    result_path = Path(spec["result"])
    spec_path = result_path.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    started = perf_counter()
    try:
        done = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                              env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, perf_counter() - started
    elapsed = perf_counter() - started
    if done.returncode != 0 or not result_path.exists():
        return None, elapsed
    return json.loads(result_path.read_text(encoding="utf-8")), elapsed


def measure(args, env: dict, work: Path, input_path: Path,
            deadline: float) -> tuple[list, int, list]:
    """Passes until ``args.seconds`` are used, each after a few set-up
    probes; returns (results, crashes, set-up times). The output checks of
    the first pass do not count against ``args.seconds``."""
    results, crashes, used, setups = [], 0, [], []
    started, checking = perf_counter(), 0.0
    while True:
        setups += [setup_probe(env) for _ in range(SETUP_PROBES_PER_PASS)]
        index = len(results) + crashes
        spec = {"workload": args.workload, "seed": args.seed, "index": index,
                "run_id": f"{args.workload}-s{args.seed}-p{index}-{os.getpid()}",
                "input": str(input_path), "work": str(work),
                "result": str(work / f"pass-{index}.json"),
                "traced": bool(args.trace) and index % 2 == 1,
                "check": index == 0}
        result, seconds = run_pass(spec, env, deadline - perf_counter())
        if result is None:
            crashes += 1
        else:
            results.append(result)
            checking += result.get("check_s", 0.0)
            seconds -= result.get("check_s", 0.0)
        used.append(seconds)
        elapsed = perf_counter() - started - checking
        if (perf_counter() + median(used) > deadline
                or len(used) >= MIN_PASSES and elapsed + median(used) / 2 > args.seconds):
            return results, crashes, setups


def cross_checks(results: list[dict]) -> list[tuple[str, bool, str]]:
    """Seeded determinism across passes (processes)."""
    checks = []
    for key in ("digests", "count_totals"):
        seen = [r[key] for r in results if r.get(key)]
        if len(seen) >= 2:
            same = all(s == seen[0] for s in seen)
            checks.append((f"determinism.{key}", same,
                           f"{len(seen)} passes, identical: {same}"))
    return checks


def end_to_end(ok: list[dict], setup_s: float, pass_ratio: float) -> dict:
    wall = median(r["wall_s"] for r in ok)
    return {
        "wall_s": wall,
        "events_per_s": ok[0]["events"] / wall,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in ok),
        "setup_s": setup_s,
        "pass_ratio": pass_ratio,
    }


def per_layer(ok: list[dict]) -> dict:
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    values = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}

    def stage(name: str, per_call: bool) -> float:
        def one(r):
            times = r["stages"].get(name, [])
            return (sum(times) / len(times) if per_call else sum(times)) if times else 0.0
        return median(one(r) for r in plain)

    values["stage.extract_s"] = stage("stage.extract", per_call=False)
    values["stage.generate_s"] = stage("stage.generate", per_call=True)
    values["stage.compare_s"] = stage("stage.compare", per_call=False)
    values["stage.count_s"] = stage("stage.count", per_call=False)
    values["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                  - median(r["wall_s"] for r in plain))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INPUTS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", type=int, default=None,
                        help="input size override, for the self-test")
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "motifgen" / "__init__.py").is_file():
        print(f"error: no motifgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = BENCH / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = out / "work"  # inputs, replicas, profiles; removed after the run
    shutil.rmtree(out, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    input_path = work / "input.txt"
    try:
        input_args = dict(WORKLOAD_INPUTS[args.workload])
        if args.events is not None:
            input_args["n_events"] = args.events
        input_path.write_text(desk_scale_edges(args.seed, **input_args), encoding="ascii")

        results, crashes, setups = measure(args, env, work, input_path, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in results if r["error"] is None]
    checks = [tuple(c) for r in results for c in r.get("checks", [])]
    checks += cross_checks(ok)
    if not any(r.get("checks") for r in ok):
        checks.append(("checks.ran", False, "the checking pass did not finish"))
    attempted = sum(r["ops"] for r in results) + crashes + len(checks)
    failed = (sum(r["ops_failed"] for r in results) + crashes
              + sum(1 for c in checks if not c[1]))
    for name, passed, detail in checks:
        if not passed:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    for r in results:
        if r["error"]:
            print(f"pass {r['run_id']} failed:\n{r['error']}", file=sys.stderr)
    if not ok or (args.trace and {r["traced"] for r in ok} != {False, True}):
        print("error: no complete pass to measure", file=sys.stderr)
        return 1

    pass_ratio = (attempted - failed) / attempted
    values = (per_layer(ok) if args.trace
              else end_to_end(ok, median(setups), pass_ratio))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    env_record = environment(args.seed) | {"numpy": ok[0]["numpy"],
                                           "passes": len(results), "crashes": crashes}
    (out / "result.json").write_text(json.dumps({
        "workload": args.workload, "trace": args.trace, "env": env_record,
        "metrics": metrics, "checks": checks,
        "passes": [{k: v for k, v in r.items() if k != "spans"} for r in results],
        "spans": [s for r in results for s in r.get("spans", [])],
    }, indent=1), encoding="utf-8")

    print("env " + json.dumps(env_record))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
