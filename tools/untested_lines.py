"""List the lines of ``src/motifgen`` that the test suite never executes.

coverage.py is not a dependency, so this needs only the standard library and
pytest. It runs pytest in this process under a ``sys.settrace`` line tracer
that traces only frames of ``src/motifgen``. It takes each module's
executable lines from its code objects (``co_lines``) and prints every
``file:line`` that never ran, then their count. The tracer makes the suite
run about 2.5x slower. Exits with pytest's status.

Usage, from the repository root (extra arguments go to pytest; the default
is the whole suite under ``tests/``)::

    python tools/untested_lines.py
    python tools/untested_lines.py tests/test_codec.py
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "motifgen"


def executable_lines(path: Path) -> set[int]:
    """Every line that starts an instruction of the module's code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines()
                     if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events for frames outside the package
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(SRC.glob("*.py")):
        seen = ran.get(str(path), set())
        for line in sorted(executable_lines(path) - seen):
            print(f"{path.relative_to(ROOT)}:{line}")
            missed += 1
    print(f"{missed} executable lines never ran (pytest exit {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
