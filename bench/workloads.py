"""The timed section of each workload, and the checks of its outputs.

Every package call goes through its module attribute (``events.load_events``,
not a name imported here), so that a traced run's wrappers see it. Each
stage of a pass runs inside a ``stage.*`` span; a stage is one operation in
the benchmark's ``attempted`` count. The checks run after the timed section
and return ``(name, ok, detail)`` triples.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from motifgen import counting, events, extraction, generation, stats
from motifgen.codec import STOP

from spans import Recorder

L_MAX = 4
DELTA = 3600
DELTA_C = 3600
COMPARE_L = (2, 3)
WINDOWS = 10
COUNT_L = (2, 3, 4)

# Fidelity gates of the acceptance suite (criteria 5-8).
ROW_SUM_TOL = 1e-9
RATIO_TOL = {"event_count": 0.10, "edge_count": 0.10, "mean_degree": 0.10,
             "timespan_seconds": 0.10, "mean_iet": 0.25}
KS_MAX = 0.35
MSRE_MAX = {2: 0.5, 3: 1.0}


@dataclass
class Pass:
    """What one pass of a workload produced, for the checks."""

    graph: events.TemporalGraph | None = None
    profile: extraction.TransitionProfile | None = None
    replicas: list = field(default_factory=list)  # one per generation seed
    replica_paths: list[Path] = field(default_factory=list)
    profile_path: Path | None = None
    report: dict | None = None
    counts: dict = field(default_factory=dict)  # l -> SpectrumCounts


def gen_seeds(seed: int) -> tuple[int, int]:
    return seed, seed + 1


def desk_pipeline(rec: Recorder, text_path: Path, work: Path, seed: int) -> Pass:
    """The CLI's file-mediated flow: extract, generate x2, compare."""
    out = Pass(profile_path=work / "profile.json")
    with rec.span("stage.extract"):
        out.graph = events.load_events(text_path)
        out.profile = extraction.extract_profile(out.graph, delta=DELTA, l_max=L_MAX)
        extraction.save_profile(out.profile, out.profile_path)
    with rec.span("stage.profile_load"):
        loaded = extraction.load_profile(out.profile_path)
    for s in gen_seeds(seed):
        path = work / f"replica-{s}.txt"
        with rec.span("stage.generate"):
            replica = generation.generate(loaded, generation.GenerationConfig(seed=s))
            events.save_events(replica, path)
        out.replicas.append(replica)
        out.replica_paths.append(path)
    with rec.span("stage.compare"):
        original = events.load_events(text_path)
        synthetics = [events.load_events(p) for p in out.replica_paths]
        out.report = stats.compare_report(original, synthetics, delta_c=DELTA_C,
                                          l_set=COMPARE_L, window_count=WINDOWS)
    return out


def dense_count(rec: Recorder, text_path: Path, work: Path, seed: int) -> Pass:
    """Parse, extract, then count at every l: counting dominates."""
    text = text_path.read_text(encoding="ascii")
    out = Pass()
    with rec.span("stage.extract"):
        out.graph = events.parse_events(text)
        out.profile = extraction.extract_profile(out.graph, delta=DELTA, l_max=L_MAX)
    for l in COUNT_L:
        with rec.span("stage.count"):
            out.counts[l] = counting.count_motifs(out.graph, l, DELTA_C)
    return out


def desk_generate(rec: Recorder, text_path: Path, work: Path, seed: int) -> Pass:
    """Parse, extract, then generate two replicas in memory."""
    text = text_path.read_text(encoding="ascii")
    out = Pass()
    with rec.span("stage.extract"):
        out.graph = events.parse_events(text)
        out.profile = extraction.extract_profile(out.graph, delta=DELTA, l_max=L_MAX)
    for s in gen_seeds(seed):
        with rec.span("stage.generate"):
            out.replicas.append(
                generation.generate(out.profile, generation.GenerationConfig(seed=s)))
    return out


PIPELINES = {
    "desk60k-pipeline": desk_pipeline,
    "dense60k-count": dense_count,
    "desk240k-generate": desk_generate,
}


def replica_digest(replica: events.TemporalGraph) -> str:
    return hashlib.sha256(events.write_events(replica).encode("ascii")).hexdigest()


# ----------------------------------------------------------------- checks

def check_profile(p: extraction.TransitionProfile) -> list[tuple[str, bool, str]]:
    processes = sum(c for k, c in p.counts.items() if k.dst is STOP)
    worst = max((abs(sum(row.values()) + p.stop_probability(src) - 1.0)
                 for src, row in p.probs.items()), default=0.0)
    stubs_in = sum(i for i, _ in p.k_ce)
    stubs_out = sum(o for _, o in p.k_ce)
    return [
        ("profile.processes_equal_cold", processes == p.cold_event_count,
         f"{processes} processes, {p.cold_event_count} cold events"),
        ("profile.rows_normalized", worst <= ROW_SUM_TOL,
         f"worst |row sum - 1| = {worst:.2e}"),
        ("profile.stubs_balanced", stubs_in == stubs_out,
         f"{stubs_in} in-stubs, {stubs_out} out-stubs"),
    ]


def check_ratios(ratios: dict) -> list[tuple[str, bool, str]]:
    """Criterion 6: replica-mean over original of the global statistics."""
    return [(f"fidelity.ratio.{m}",
             ratios[m] is not None and abs(ratios[m] - 1.0) <= tol,
             f"{ratios[m]} within 1 +- {tol}") for m, tol in RATIO_TOL.items()]


def check_report(report: dict, graph: events.TemporalGraph) -> list[tuple[str, bool, str]]:
    """Counting consistency and fidelity gates on a compare report."""
    out = []
    for l in COMPARE_L:
        entry = report["msre"][str(l)]
        whole = counting.count_motifs(graph, l, DELTA_C).total
        out.append((f"counting.original_total.l{l}", entry["original_total"] == whole,
                    f"report {entry['original_total']}, standalone {whole}"))
        windows = report["window_trends"][str(l)]
        synth_whole = sum(entry["synthetic_totals"]) / len(entry["synthetic_totals"])
        out.append((f"counting.windows_within_whole.l{l}",
                    sum(windows["original"]) <= whole
                    and sum(windows["synthetic_mean"]) <= synth_whole,
                    f"window sums {sum(windows['original'])} <= {whole}, "
                    f"{sum(windows['synthetic_mean'])} <= {synth_whole}"))
        msre = entry["total"]
        out.append((f"fidelity.msre.l{l}", msre is not None and msre <= MSRE_MAX[l],
                    f"{msre} <= {MSRE_MAX[l]}"))
    out += check_ratios(report["global_stats"]["ratios"])
    out += [(f"fidelity.ks.{name}", value <= KS_MAX, f"{value:.4f} <= {KS_MAX}")
            for name, value in report["ks"].items()]
    return out


def check_pair_counts(g: events.TemporalGraph, got) -> list[tuple[str, bool, str]]:
    """l = 2 counts against a direct enumeration of event pairs."""
    evs = g.events
    by_node: dict[int, list[int]] = {}
    for i, e in enumerate(evs):
        by_node.setdefault(e.src, []).append(i)
        by_node.setdefault(e.dst, []).append(i)
    times = {n: [evs[i].t for i in idx] for n, idx in by_node.items()}
    want: dict[tuple, int] = {}
    for a in evs:
        digit = {a.src: 0, a.dst: 1}
        later = set()
        for n in (a.src, a.dst):
            lo = bisect_right(times[n], a.t)
            hi = bisect_right(times[n], a.t + DELTA_C)
            later.update(by_node[n][lo:hi])
        for j in later:
            b = evs[j]
            key = ((0, 1), (digit.get(b.src, 2), digit.get(b.dst, 2)))
            want[key] = want.get(key, 0) + 1
    have = {code.pairs: c for code, c in got.counts.items()}
    return [("counting.pairs_match_direct", have == want,
             f"{sum(have.values())} counted, {sum(want.values())} enumerated")]


def run_checks(name: str, out: Pass) -> list[tuple[str, bool, str]]:
    """Every output check of one pass of workload ``name``."""
    results = check_profile(out.profile)
    if name == "desk60k-pipeline":
        reloaded = extraction.load_profile(out.profile_path)
        results.append(("profile.round_trip", reloaded == out.profile,
                        "load_profile(save_profile(p)) == p"))
        for replica, path in zip(out.replicas, out.replica_paths):
            same = events.load_events(path).events == replica.events
            results.append((f"events.round_trip.{path.name}", same,
                            "load_events(save_events(g)) == g"))
        results += check_report(out.report, out.graph)
    elif name == "dense60k-count":
        results += check_pair_counts(out.graph, out.counts[2])
        results += [(f"counting.nonempty.l{l}", c.total > 0, f"{c.total} instances")
                    for l, c in out.counts.items()]
    elif name == "desk240k-generate":
        orig = stats.global_stats(out.graph).as_dict()
        synth = [stats.global_stats(r).as_dict() for r in out.replicas]
        ratios = {m: sum(s[m] for s in synth) / len(synth) / orig[m]
                  for m in RATIO_TOL}
        results += check_ratios(ratios)
    return results
