"""Fidelity evaluation: global graph statistics, KS tests, motif-count errors.

The eight global statistics, the four compared distributions (in-degree,
out-degree, inter-event time, timestamp) and the mean squared relative error
of motif counts together form the comparison report between an input graph
and a batch of synthetic replicas.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

# count_motifs stays importable from here: bench/spans.py wraps it by name.
from .counting import check_count_args, count_motifs, count_spectra  # noqa: F401
from .events import TemporalGraph, static_projection


@dataclass(frozen=True)
class GlobalStats:
    edge_count: int
    mean_degree: float
    n_components: int
    lcc_size: int
    event_count: int
    timespan_seconds: int
    mean_iet: float
    max_events_on_edge: int

    def as_dict(self) -> dict:
        return asdict(self)


def _weak_components(edges: Iterable[tuple[int, int]],
                     nodes: Iterable[int]) -> list[int]:
    """Component sizes of the undirected view, via union-find."""
    parent: dict[int, int] = {n: n for n in nodes}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    sizes: Counter[int] = Counter(find(n) for n in parent)
    return list(sizes.values())


def global_stats(g: TemporalGraph) -> GlobalStats:
    if not g.events:
        raise ValueError("global statistics are undefined for an empty graph")
    proj = static_projection(g)
    degree: Counter[int] = Counter()
    for u, v in proj:
        degree[u] += 1
        degree[v] += 1
    nodes = list(degree)
    comp_sizes = _weak_components(proj, nodes)
    n_events = len(g.events)
    multiplicity = Counter((e.src, e.dst) for e in g.events)
    return GlobalStats(
        edge_count=len(proj),
        mean_degree=sum(degree.values()) / len(nodes),
        n_components=len(comp_sizes),
        lcc_size=max(comp_sizes),
        event_count=n_events,
        timespan_seconds=g.timespan,
        mean_iet=g.timespan / (n_events - 1) if n_events > 1 else 0.0,
        max_events_on_edge=max(multiplicity.values()),
    )


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b| in [0, 1]."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("KS statistic needs two non-empty samples")
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / xa.size
    cdf_b = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.abs(cdf_a - cdf_b).max())


def msre(synthetic_counts: Sequence[int], original_count: int) -> float:
    """Mean squared relative error of replica counts against the original.

    The relative error of each replica is taken against the replica's own
    count, so a replica with zero instances has no defined value and raises.
    """
    if len(synthetic_counts) == 0:
        raise ValueError("need at least one synthetic count")
    if any(c == 0 for c in synthetic_counts):
        raise ValueError("MSRE is undefined when a synthetic count is zero")
    return sum(((c - original_count) / c) ** 2 for c in synthetic_counts) \
        / len(synthetic_counts)


def _degree_samples(g: TemporalGraph) -> tuple[list[int], list[int]]:
    in_deg: Counter[int] = Counter()
    out_deg: Counter[int] = Counter()
    nodes = set()
    for u, v in static_projection(g):
        out_deg[u] += 1
        in_deg[v] += 1
        nodes.add(u)
        nodes.add(v)
    return ([in_deg[n] for n in nodes], [out_deg[n] for n in nodes])


def _iet_samples(g: TemporalGraph) -> list[int]:
    ts = [e.t for e in g.events]
    return [b - a for a, b in zip(ts, ts[1:])]


def _shifted_timestamps(g: TemporalGraph) -> list[int]:
    t0 = g.events[0].t
    return [e.t - t0 for e in g.events]


GLOBAL_METRICS = ("edge_count", "mean_degree", "n_components", "lcc_size",
                  "event_count", "timespan_seconds", "mean_iet",
                  "max_events_on_edge")
KS_DISTRIBUTIONS = ("in_degree", "out_degree", "iet", "timestamp")


def compare_report(original: TemporalGraph, synthetics: Sequence[TemporalGraph],
                   delta_c: int, l_set: Sequence[int] = (2, 3),
                   window_count: int = 10, inclusive: bool = True) -> dict:
    """Full fidelity report of ``synthetics`` against ``original``.

    Emits the eight global-statistic ratios (synthetic mean over original),
    the four KS statistics averaged over replicas, MSRE per motif size and
    per motif type (``None`` where undefined), and per-window motif totals.
    Each graph is counted once, for every size and window together.
    """
    if not synthetics:
        raise ValueError("need at least one synthetic graph")
    check_count_args(l_set, delta_c)
    if window_count < 1:
        raise ValueError(f"window_count must be at least 1, got {window_count}")

    orig_stats = global_stats(original).as_dict()
    synth_stats = [global_stats(s).as_dict() for s in synthetics]
    mean_stats = {m: sum(s[m] for s in synth_stats) / len(synth_stats)
                  for m in GLOBAL_METRICS}
    ratios = {m: (mean_stats[m] / orig_stats[m]) if orig_stats[m] else None
              for m in GLOBAL_METRICS}

    orig_in, orig_out = _degree_samples(original)
    orig_iet = _iet_samples(original)
    orig_ts = _shifted_timestamps(original)
    ks_totals = dict.fromkeys(KS_DISTRIBUTIONS, 0.0)
    for s in synthetics:
        s_in, s_out = _degree_samples(s)
        ks_totals["in_degree"] += ks_statistic(orig_in, s_in)
        ks_totals["out_degree"] += ks_statistic(orig_out, s_out)
        if orig_iet and len(s.events) > 1:
            ks_totals["iet"] += ks_statistic(orig_iet, _iet_samples(s))
        ks_totals["timestamp"] += ks_statistic(orig_ts, _shifted_timestamps(s))
    ks_mean = {k: v / len(synthetics) for k, v in ks_totals.items()}

    orig_spectra = count_spectra(original, l_set, delta_c, inclusive=inclusive,
                                 window_count=window_count)
    synth_spectra = [count_spectra(s, l_set, delta_c, inclusive=inclusive,
                                   window_count=window_count)
                     for s in synthetics]
    msre_report: dict[str, dict] = {}
    window_report: dict[str, dict] = {}
    for l in l_set:
        orig_counts = orig_spectra[l]
        synth_counts = [spectra[l] for spectra in synth_spectra]
        totals = [sc.total for sc in synth_counts]
        total_msre = msre(totals, orig_counts.total) if all(totals) else None
        per_code: dict[str, float | None] = {}
        codes = set(orig_counts.counts)
        for sc in synth_counts:
            codes.update(sc.counts)
        for code in sorted(codes, key=lambda c: c.pairs):
            replica = [sc.counts.get(code, 0) for sc in synth_counts]
            orig_c = orig_counts.counts.get(code, 0)
            per_code[code.render()] = (msre(replica, orig_c)
                                       if all(replica) else None)
        msre_report[str(l)] = {
            "original_total": orig_counts.total,
            "synthetic_totals": totals,
            "total": total_msre,
            "per_code": per_code,
        }
        window_report[str(l)] = {
            "original": orig_counts.windows,
            "synthetic_mean": [sum(col) / len(col) for col in
                               zip(*(sc.windows for sc in synth_counts))],
        }

    return {
        "replicas": len(synthetics),
        "params": {"delta_c": delta_c, "l_set": list(l_set),
                   "window_count": window_count, "inclusive": inclusive},
        "global_stats": {
            "original": orig_stats,
            "synthetic_mean": mean_stats,
            "ratios": ratios,
        },
        "ks": ks_mean,
        "msre": msre_report,
        "window_trends": window_report,
    }
