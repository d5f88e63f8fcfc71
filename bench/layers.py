"""Per-layer metrics of one traced workload pass, read off its spans.

Times are summed over every call of a layer in the pass, counts are totals
over the pass. A layer the workload does not run reads 0. Counts come from
the arguments and results the wrappers kept, so nothing here runs inside the
timed section.
"""

from __future__ import annotations

import os

from motifgen.codec import STOP

from spans import Recorder

CRITERION_6 = ("event_count", "edge_count", "mean_degree", "timespan_seconds",
               "mean_iet")


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _count_l(span: dict) -> int:
    args, kwargs = span["args"], span["kwargs"]
    return args[1] if len(args) > 1 else kwargs["l"]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    spans = rec.spans

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str) -> float:
        return sum(_dur(s) for s in named(name))

    m: dict[str, float] = {}

    # events
    parses = named("events.parse_events")
    m["events.parse_s"] = total("events.parse_events")
    m["events.write_s"] = total("events.write_events")
    m["events.events_parsed"] = sum(len(s["result"]) for s in parses)
    m["events.bytes_read"] = (
        sum(len(s["args"][0]) for s in parses
            if isinstance(s["args"][0], (str, bytes)))
        + sum(os.path.getsize(s["args"][0]) for s in named("events.load_events")))
    m["events.from_events_calls"] = len(named("events.from_events"))
    m["events.from_events_s"] = total("events.from_events")

    # extraction and codec
    profiles = [s["result"] for s in named("extraction.extract_profile")]
    keys = [k for p in profiles for k in p.counts]
    scanned = sum(p.input_event_count for p in profiles)
    transitions = sum(p.counts[k] for p in profiles for k in p.counts
                      if k.dst is not STOP)
    m["extraction.extract_s"] = total("extraction.extract_profile")
    m["extraction.events_scanned"] = scanned
    m["extraction.cold_events"] = sum(p.cold_event_count for p in profiles)
    m["extraction.processes"] = sum(p.counts[k] for p in profiles
                                    for k in p.counts if k.dst is STOP)
    m["extraction.transitions"] = transitions
    m["extraction.extensions_per_event"] = transitions / scanned if scanned else 0.0
    m["extraction.transition_types"] = sum(1 for k in keys if k.dst is not STOP)
    m["extraction.profile_save_s"] = total("extraction.save_profile")
    m["extraction.profile_load_s"] = total("extraction.load_profile")
    m["extraction.profile_bytes"] = sum(
        os.path.getsize(s["args"][1]) for s in named("extraction.save_profile"))
    m["codec.profile_codes"] = len({k.src for k in keys}
                                   | {k.dst for k in keys if k.dst is not STOP})

    # generation
    colds = named("generation.generate_cold_events")
    sims = named("generation.simulate")
    stubs = sum(len(s["args"][0].ce_edge_weights) for s in colds)
    placed = sum(len({(e.src, e.dst) for e in s["result"]}) for s in colds)
    m["generation.generate_s"] = total("generation.generate")
    m["generation.cold_s"] = total("generation.generate_cold_events")
    m["generation.simulate_s"] = total("generation.simulate")
    m["generation.events_out"] = sum(len(s["result"]) for s in sims)
    m["generation.cold_events_out"] = sum(len(s["result"]) for s in colds)
    m["generation.stub_pairs_dropped"] = stubs - placed
    m["generation.stub_placed_ratio"] = placed / stubs if stubs else 0.0
    minted = equal_t = 0
    for s in sims:
        first_minted = len(s["args"][0].k_ce)  # cold events use ids below this
        evs = s["result"].events
        minted += len({n for e in evs for n in (e.src, e.dst)
                       if n >= first_minted})
        equal_t += sum(1 for a, b in zip(evs, evs[1:]) if a.t == b.t)
    m["generation.minted_nodes"] = minted
    m["generation.equal_t_adjacent"] = equal_t

    # counting
    counts = named("counting.count_motifs")
    counted_codes = set()
    for s in counts:
        counted_codes.update(s["result"].counts)
    m["codec.counted_codes"] = len(counted_codes)
    for l in (2, 3, 4):
        at_l = [s for s in counts if _count_l(s) == l]
        m[f"counting.count_s.l{l}"] = sum(_dur(s) for s in at_l)
        m[f"counting.instances.l{l}"] = sum(s["result"].total for s in at_l)
    count_time = sum(_dur(s) for s in counts)
    m["counting.instances_per_s"] = (
        sum(s["result"].total for s in counts) / count_time if count_time else 0.0)
    m["counting.calls"] = len(counts)

    # stats: children of compare_report, window recounts told apart from
    # whole-graph counts by the identity of the graph counted
    for name in ("compare_self_s", "global_stats_s", "ks_s", "count_whole_s",
                 "count_window_s", "count_window_calls", "window_share",
                 "msre.l2", "msre.l3", "ks_max", "ratio_maxdev",
                 "compare_load_s"):
        m[f"stats.{name}"] = 0.0
    compare_total = 0.0
    for idx, s in enumerate(spans):
        if s["name"] != "stats.compare_report":
            continue
        whole = [s["args"][0], *s["args"][1]]
        compare_total += _dur(s)
        m["stats.compare_self_s"] += rec.self_time(idx)
        for c in spans:
            if c["parent"] != idx:
                continue
            if c["name"] == "stats.global_stats":
                m["stats.global_stats_s"] += _dur(c)
            elif c["name"] == "stats.ks_statistic":
                m["stats.ks_s"] += _dur(c)
            elif (c["name"] == "counting.count_motifs"
                  and any(c["args"][0] is g for g in whole)):
                m["stats.count_whole_s"] += _dur(c)
            else:  # window recounts and the subgraph rebuilds they need
                m["stats.count_window_s"] += _dur(c)
                m["stats.count_window_calls"] += c["name"] == "counting.count_motifs"
        report = s["result"]
        for l in (2, 3):
            m[f"stats.msre.l{l}"] = report["msre"][str(l)]["total"] or 0.0  # 0: undefined
        m["stats.ks_max"] = max(report["ks"].values())
        ratios = report["global_stats"]["ratios"]
        m["stats.ratio_maxdev"] = max(abs(ratios[k] - 1.0) for k in CRITERION_6)
    m["stats.window_share"] = (m["stats.count_window_s"] / compare_total
                               if compare_total else 0.0)
    m["stats.compare_load_s"] = sum(rec.durations("events.load_events",
                                                  parent="stage.compare"))
    return m
