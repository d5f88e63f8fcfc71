"""``tools/peak_memory.py`` runs the benchmark's own desk pass.

The tool imports ``desk_pipeline`` and the ``stage.*`` span names from
``bench/``, which changes only together with the benchmark. So a benchmark
change that renames the pass or one of its stages fails here, naming the
tool, rather than leaving the tool broken.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_memory.py"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_peak_memory_prints_a_row_per_desk_stage():
    done = subprocess.run([sys.executable, str(TOOL), "--events", "3000",
                           "--nodes", "100", "--seed", "7"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, f"tools/peak_memory.py failed:\n{done.stderr}"
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["stage", "peak", "MiB", "current", "MiB"]
    rows = [line.rsplit(None, 2) for line in lines]
    assert [label for label, _, _ in rows] == [
        "imports", "extract", "profile load", "generate 7", "generate 8",
        "compare"], "tools/peak_memory.py no longer sees the desk stages"
    peaks = [float(peak) for _, peak, _ in rows]
    assert all(float(peak) >= float(current) for _, peak, current in rows)
    assert peaks == sorted(peaks)
