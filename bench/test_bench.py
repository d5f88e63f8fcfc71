"""Fast self-test of the benchmark: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from inputs import WORKLOAD_INPUTS, desk_scale_edges  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import PIPELINES, run_checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 2000

# sha256 of write_events(desk_scale_stream(**kwargs)) from tests/surrogate.py
PINNED = {
    "desk": ({}, "7b5d427bae16d43521eba58c73b1b069eb4f5b56255b40637cbd5c71c6b166c9"),
    "dense": ({"mean_iet": 10.0},
              "90abf87620bef9b14d586af77eb5674aca1e4207c3b907e52e3a3edd6e8260b0"),
}


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_inputs_are_the_surrogate_bytes(kind):
    from motifgen import write_events
    from surrogate import desk_scale_stream

    kwargs, digest = PINNED[kind]
    fast = desk_scale_edges(**kwargs)
    assert hashlib.sha256(fast.encode("ascii")).hexdigest() == digest
    assert write_events(desk_scale_stream(**kwargs)) == fast


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOAD_INPUTS))
def test_every_metric_printed_with_its_unit(workload, trace):
    done = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--events", str(TINY)])
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())


def test_corrupted_outputs_raise_the_fail_ratio(tmp_path):
    text_path = tmp_path / "input.txt"
    text_path.write_text(desk_scale_edges(7, n_events=TINY, mean_iet=10.0),
                         encoding="ascii")
    out = PIPELINES["dense60k-count"](Recorder("selftest"), text_path, tmp_path, 7)

    def fail_ratio() -> float:
        checks = run_checks("dense60k-count", out)
        return sum(1 for _, ok, _ in checks if not ok) / len(checks)

    assert fail_ratio() == 0.0
    src, row = next(iter(out.profile.probs.items()))
    dst = next(iter(row))
    row[dst] += 1.0  # the row now sums past 1
    assert fail_ratio() > 0.0
    row[dst] -= 1.0
    code = next(iter(out.counts[2].counts))
    out.counts[2].counts[code] += 1  # one instance too many
    assert fail_ratio() > 0.0


def test_stats_layers_account_for_the_compare_stage(tmp_path):
    text_path = tmp_path / "input.txt"
    text_path.write_text(desk_scale_edges(7, n_events=TINY), encoding="ascii")
    rec = Recorder("selftest")
    rec.install()
    try:
        PIPELINES["desk60k-pipeline"](rec, text_path, tmp_path, 7)
    finally:
        rec.uninstall()
    m = layer_metrics(rec)
    (compare_s,) = rec.durations("stage.compare")
    parts = sum(m[f"stats.{name}"] for name in (
        "compare_load_s", "compare_self_s", "global_stats_s", "ks_s",
        "count_whole_s", "count_window_s"))
    assert m["stats.count_window_calls"] == 2 * 3 * 10  # l x graphs x windows
    assert parts == pytest.approx(compare_s, rel=0.02)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "desk60k-pipeline", "--seconds", "1"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
