"""The package names that the benchmark under ``bench/`` calls.

``bench/`` changes only together with the benchmark, so a name it calls
cannot leave the package on its own. These tests read what ``bench/`` needs
without importing it, and each failure names the ``bench/`` line that needs
the missing name.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import random
from pathlib import Path

import pytest

from motifgen import codec, counting, events, extraction, generation

from helpers import random_stream

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def bench_line(file: str, needle: str) -> str:
    """``bench/<file>:<line>`` of the first line of ``file`` holding
    ``needle``; fails if no line does, since then this contract is stale."""
    lines = (BENCH / file).read_text(encoding="utf-8").splitlines()
    for n, line in enumerate(lines, 1):
        if needle in line:
            return f"bench/{file}:{n}"
    pytest.fail(f"bench/{file} no longer mentions {needle!r}; "
                f"drop it from tests/test_api.py")


def traced() -> list[tuple[str, tuple[str, str, str]]]:
    """The ``TRACED`` entries of ``bench/spans.py``, each with its line."""
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]):
            return [(f"bench/spans.py:{elt.lineno}", ast.literal_eval(elt))
                    for elt in node.value.elts]
    pytest.fail("bench/spans.py defines no TRACED tuple")


@pytest.mark.parametrize("where, entry", traced(),
                         ids=lambda v: v if isinstance(v, str) else v[2])
def test_traced_names_resolve(where, entry):
    module_name, attr, _ = entry
    owner = importlib.import_module(module_name)
    *outer, name = attr.split(".")
    for part in outer:
        assert hasattr(owner, part), f"{module_name}.{part} is gone; {where} traces it"
        owner = getattr(owner, part)
    assert hasattr(owner, name), f"{module_name}.{attr} is gone; {where} traces it"


def test_from_events_is_a_classmethod():
    where = bench_line("spans.py", '"TemporalGraph.from_events"')
    static = inspect.getattr_static(events.TemporalGraph, "from_events")
    assert isinstance(static, classmethod), (
        f"TemporalGraph.from_events is no classmethod; {where} wraps it as one")


def test_output_checks_find_their_names():
    assert hasattr(codec, "STOP"), (
        f"codec.STOP is gone; {bench_line('workloads.py', 'import STOP')} "
        f"and {bench_line('layers.py', 'import STOP')} import it")
    g = random_stream(random.Random(3), n_events=300, n_nodes=12, t_max=2000)
    profile = extraction.extract_profile(g, delta=200, l_max=3)
    where = bench_line("workloads.py", "stop_probability")
    assert callable(getattr(profile, "stop_probability", None)), (
        f"TransitionProfile.stop_probability is gone; {where} reads it")
    where = bench_line("workloads.py", "GenerationConfig(seed=s)")
    assert hasattr(generation, "GenerationConfig"), (
        f"generation.GenerationConfig is gone; {where} builds it")
    replica = generation.generate(profile, generation.GenerationConfig(seed=5))
    where = bench_line("workloads.py", "evs = g.events")
    for graph in (g, replica):
        row = graph.events[0]
        assert all(hasattr(row, f) for f in ("src", "dst", "t")), (
            f"graph rows lost src/dst/t; {where} reads them")
    counts = counting.count_motifs(g, 2, 50)
    where = bench_line("workloads.py", "c.total > 0")
    assert isinstance(counts.counts, dict) and isinstance(counts.total, int), (
        f"SpectrumCounts.counts or .total is gone; {where} reads them")


def test_codec_imports_no_other_module():
    tree = ast.parse((ROOT / "src" / "motifgen" / "codec.py").read_text(encoding="utf-8"))
    inner = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("motifgen"))]
    inner += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Import)
              and any(a.name.startswith("motifgen") for a in node.names)]
    assert not inner, f"motifgen/codec.py imports the package at lines {inner}"
