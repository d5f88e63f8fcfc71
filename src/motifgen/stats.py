"""Fidelity evaluation: global graph statistics, KS tests, motif-count errors.

The eight global statistics, the four compared distributions (in-degree,
out-degree, inter-event time, timestamp) and the mean squared relative error
of motif counts together form the comparison report between an input graph
and a batch of synthetic replicas.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Sequence

import numpy as np

# count_motifs stays importable from here: bench/spans.py wraps it by name.
from .counting import check_count_args, count_motifs, count_spectra  # noqa: F401
from .events import TemporalGraph, degrees, static_projection


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
    multiplicity = Counter((e.src, e.dst) for e in g.events)
    proj = multiplicity.keys()  # the static projection
    degree = degrees(proj)
    comp_sizes = _weak_components(proj, degree)
    n_events = len(g.events)
    return GlobalStats(
        edge_count=len(proj),
        mean_degree=sum(i + o for i, o in degree.values()) / len(degree),
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


def _samples(g: TemporalGraph) -> dict[str, list[int]]:
    """In- and out-degrees, gaps and timestamps shifted to 0, by name."""
    in_out = degrees(static_projection(g)).values()
    ts = [e.t for e in g.events]
    return {"in_degree": [i for i, _o in in_out],
            "out_degree": [o for _i, o in in_out],
            "iet": [b - a for a, b in zip(ts, ts[1:])],
            "timestamp": [t - ts[0] for t in ts]}


GLOBAL_METRICS = tuple(f.name for f in fields(GlobalStats))
KS_DISTRIBUTIONS = ("in_degree", "out_degree", "iet", "timestamp")


def compare_report(original: TemporalGraph, synthetics: Sequence[TemporalGraph],
                   delta_c: int, l_set: Sequence[int] = (2, 3),
                   window_count: int = 10) -> dict:
    """Full fidelity report of ``synthetics`` against ``original``.

    Emits the eight global-statistic ratios (synthetic mean over original),
    the four KS statistics averaged over replicas and MSRE per motif size and
    per motif type (each ``None`` where undefined), and per-window totals.
    Each graph is counted once, for every size and window together, and a
    gap equal to ``delta_c`` is within the ceiling.
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

    orig_samples = _samples(original)
    per_replica = [{name: ks_statistic(orig_samples[name], sample)
                    for name, sample in _samples(s).items()
                    if orig_samples[name] and sample} for s in synthetics]
    ks_mean: dict[str, float | None] = {}
    for name in KS_DISTRIBUTIONS:  # over the replicas where both samples exist
        values = [ks[name] for ks in per_replica if name in ks]
        ks_mean[name] = sum(values) / len(values) if values else None

    orig_spectra = count_spectra(original, l_set, delta_c,
                                 window_count=window_count)
    synth_spectra = [count_spectra(s, l_set, delta_c, window_count=window_count)
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
        for code in sorted(codes):
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
                   "window_count": window_count},
        "global_stats": {
            "original": orig_stats,
            "synthetic_mean": mean_stats,
            "ratios": ratios,
        },
        "ks": ks_mean,
        "msre": msre_report,
        "window_trends": window_report,
    }
