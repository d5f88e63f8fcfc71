"""In-memory span recorder, and the wrappers that time package layers from outside.

A span records its name, start, end, the span that caused it and the
workload-run id. The benchmark opens stage spans around its own calls in
every run. A traced run also replaces the package functions listed in
``TRACED`` by wrappers that open a span per call and keep references to the
call's arguments and result, so that counts are read off them only after
the timed section. Wrapping from outside works because the package's callers
look these names up as module globals at call time (``load_events`` calls
``parse_events``, ``generate`` calls ``generate_cold_events`` and
``simulate``, ``compare_report`` calls ``count_motifs``, ``global_stats``,
``ks_statistic`` and ``TemporalGraph.from_events``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); "TemporalGraph.from_events" is a classmethod.
TRACED = (
    ("motifgen.events", "parse_events", "events.parse_events"),
    ("motifgen.events", "load_events", "events.load_events"),
    ("motifgen.events", "write_events", "events.write_events"),
    ("motifgen.events", "TemporalGraph.from_events", "events.from_events"),
    ("motifgen.extraction", "extract_profile", "extraction.extract_profile"),
    ("motifgen.extraction", "save_profile", "extraction.save_profile"),
    ("motifgen.extraction", "load_profile", "extraction.load_profile"),
    ("motifgen.generation", "generate", "generation.generate"),
    ("motifgen.generation", "generate_cold_events",
     "generation.generate_cold_events"),
    ("motifgen.generation", "simulate", "generation.simulate"),
    ("motifgen.counting", "count_motifs", "counting.count_motifs"),
    ("motifgen.stats", "count_motifs", "counting.count_motifs"),
    ("motifgen.stats", "global_stats", "stats.global_stats"),
    ("motifgen.stats", "ks_statistic", "stats.ks_statistic"),
    ("motifgen.stats", "compare_report", "stats.compare_report"),
)


class Recorder:
    """Spans of one workload run, kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict takes extra attributes."""
        rec = {"name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": perf_counter(), "end": None, "error": None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        owner = module
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(module, cls_name)
        static = inspect.getattr_static(owner, attr)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                rec["args"], rec["kwargs"], rec["result"] = args, kwargs, result
            return result

        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(
                lambda _cls, *args, **kwargs: traced(*args, **kwargs)))
        else:
            setattr(owner, attr, traced)
        self._restore.append((owner, attr, static))

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            self.wrap(importlib.import_module(module_name), attr, name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, static = self._restore.pop()
            setattr(owner, attr, static)

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of the spans called ``name``, optionally only those
        whose direct parent is called ``parent``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name
                and (parent is None or (s["parent"] is not None and
                                        self.spans[s["parent"]]["name"] == parent))]

    def self_time(self, index: int) -> float:
        """Duration of span ``index`` minus the time its children cover
        (children of one caller run one after another, never overlapping)."""
        s = self.spans[index]
        covered = sum(c["end"] - c["start"] for c in self.spans
                      if c["parent"] == index)
        return s["end"] - s["start"] - covered

    def serializable(self) -> list[dict]:
        keep = ("name", "run", "parent", "start", "end", "error")
        return [{k: s[k] for k in keep} for s in self.spans]
