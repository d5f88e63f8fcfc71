"""Synthesis of a temporal graph from an extracted transition profile.

Cold events come first: a configuration model rewires the cold-event degree
sequence into static edges, the per-edge event-count multiset is shuffled onto
them, and the cold timestamps are dealt out into a graph's columns. Each cold
event then seeds a transition process that walks the probability rows, draws
exponential gaps from the matching rates, and resolves new-node digits to
endpoints through the adjacency emitted so far. One generator, seeded once per
graph, supplies every draw: the cold events, then every chain's codes and gaps
level by level, then the partners of new digits in cold-event order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .codec import CODE_01
from .events import TemporalGraph, _ints, static_edges
from .extraction import TransitionKey, TransitionProfile

_SHUFFLE_TRIES = 100
_BLOCK = 128  # Fisher-Yates draws per numpy call
_PAIR_TRIES = 100
_PARTNER_TRIES = 64


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class GenerationConfig:
    """The seed that makes a run reproducible."""

    seed: int


def _match_stubs(out_stubs: list[int], in_stubs: list[int],
                 rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Uniform stub matching avoiding self-loops and duplicate pairs; returns
    the matched pairs' sources and targets. Both tiers walk a forward
    Fisher-Yates shuffle of the in-stubs, step ``k`` drawing ``j ~ U[k, n)``.
    Whole-shuffle rejection, restarted at the first bad pair, keeps the
    matching exactly uniform over the admissible ones; when no clean shuffle
    shows up (likely only at scale) bad pairs are re-drawn locally and
    dropped as a last resort.
    """
    n, lows = len(out_stubs), np.arange(len(out_stubs))
    for _ in range(_SHUFFLE_TRIES):
        edges, dsts, moved = set(), [], {}  # moved: position -> in-stub index
        blocks = (rng.integers(lows[k:k + _BLOCK], n).tolist() for k in range(0, n, _BLOCK))
        for k, j in enumerate(chain.from_iterable(blocks)):
            s, d = out_stubs[k], in_stubs[moved.get(j, j)]
            moved[j] = moved.get(k, k)
            if s == d or (s, d) in edges:
                break
            edges.add((s, d))
            dsts.append(d)
        else:
            return out_stubs, dsts

    outs = [out_stubs[j] for j in rng.permutation(n).tolist()]
    ins = [in_stubs[j] for j in rng.permutation(n).tolist()]
    first = rng.integers(lows, n).tolist()
    edges, srcs, dsts = set(), [], []
    for k, s in enumerate(outs):
        placed = -1
        for tries in range(_PAIR_TRIES):
            j = int(rng.integers(k, n)) if tries else first[k]
            if s != ins[j] and (s, ins[j]) not in edges:
                placed = j
                break
        if placed < 0:  # scan the remaining in-stubs before harsher measures
            placed = next((j for j in range(k, n)
                           if s != ins[j] and (s, ins[j]) not in edges), -1)
        if placed >= 0:
            ins[k], ins[placed] = ins[placed], ins[k]
            d = ins[k]
        else:  # re-target a placed pair; failing that, the stub pair drops
            d = _repair_wedge(s, ins, k, n, edges, srcs, dsts)
            if d is None:
                continue
        edges.add((s, d))
        srcs.append(s)
        dsts.append(d)
    return srcs, dsts


def _repair_wedge(s: int, ins: list[int], k: int, n: int, edges: set[tuple[int, int]],
                  srcs: list[int], dsts: list[int]) -> int | None:
    """The partner one re-targeted placed pair frees for out-stub ``s``, or ``None``."""
    for m, (s2, d2) in enumerate(zip(srcs, dsts)):
        if s == d2 or (s, d2) in edges:
            continue
        for j in range(k, n):
            d = ins[j]
            if d != s2 and (s2, d) not in edges:
                ins[k], ins[j] = ins[j], ins[k]
                edges.remove((s2, d2))
                edges.add((s2, d))
                dsts[m] = d
                return d2
    return None


def generate_cold_events(profile: TransitionProfile,
                         rng: np.random.Generator) -> TemporalGraph:
    """Rebuild the cold events of a synthetic run from the profile.

    The output reproduces the cold timestamp multiset exactly; its static
    projection realizes the extracted degree sequence up to dropped stub
    pairs. Each matched pair takes as many permuted times as its weight.
    """
    t = _ints(profile.t_ce)  # int64, or Python ints past its range
    t0, span = int(t.min()), int(t.max()) - int(t.min())
    if span >= 2**63:  # past any graph's span
        raise GenerationError(f"cold times span {span} s, 2**63 s or more")
    ins, outs = (np.repeat(np.arange(len(k)), k).tolist() for k in zip(*profile.k_ce))
    src, dst = _match_stubs(outs, ins, rng)  # stubs: a node's id once per degree
    if not src:
        raise GenerationError("stub matching produced no edges")

    weights = np.asarray(profile.ce_edge_weights)
    assigned = weights[rng.permutation(len(weights))[:len(src)]]
    for _ in range(len(t) - int(assigned.sum())):  # events of dropped pairs
        assigned[rng.integers(len(assigned))] += 1
    return TemporalGraph.from_columns(np.repeat(src, assigned), np.repeat(dst, assigned),
                                      (t - t0)[rng.permutation(len(t))], t0)


def new_edge_probability(profile: TransitionProfile, n_cold_edges: int,
                         n_cold_events: int) -> float:
    """Chance that a new-node event opens a fresh static edge.

    Each process grows to ``mu`` static edges on average, so the runs request
    about ``(mu - 1)`` edges per cold event; creating new ones at this rate
    fills the gap between the input's edge count and the cold edges. Clamped
    to [0, 1]; a non-positive denominator (``mu`` <= 1) means every request
    must open a new edge.
    """
    denom = (profile.mu - 1.0) * n_cold_events
    if denom <= 0:
        return 1.0
    p = (profile.input_edge_count - n_cold_edges) / denom
    return min(max(p, 0.0), 1.0)


def select_edge_for_new_digit(nodes: list[int], linked: dict[int, None],
                              motif_nodes: set[int], new_edge_p: float,
                              rng: np.random.Generator) -> int | None:
    """Pick the free endpoint of the event bringing a new node into a motif.

    ``linked`` holds the fixed node's partners in the new event's direction
    and ``nodes`` every node emitted so far. With probability ``new_edge_p``
    a node not yet linked is chosen, otherwise an existing edge off the
    fixed node is reused; the partner always lies outside ``motif_nodes`` so
    the emitted event realizes the sampled code. Falls back from reuse to
    creation, and from creation to ``None``: a brand-new node, which the
    caller mints.
    """
    if rng.random() >= new_edge_p:
        candidates = [w for w in linked if w not in motif_nodes]
        if candidates:
            return candidates[int(rng.integers(len(candidates)))]
    for _ in range(_PARTNER_TRIES):
        w = nodes[int(rng.integers(len(nodes)))]
        if w not in motif_nodes and w not in linked:
            return w
    candidates = [w for w in nodes if w not in motif_nodes and w not in linked]
    if candidates:
        return candidates[int(rng.integers(len(candidates)))]
    return None


def _compile(profile: TransitionProfile) -> tuple:
    """The rows as arrays by (state, entry): a state per code with a row, in
    code order (01 first), its entries in row order, padded with ``inf``. An
    entry holds the row's running probability sum, the successor's state (-1
    without a row), the mean gap, and the successor's last pair."""
    codes = sorted(code for code, row in profile.probs.items() if row)
    ids = {code: i for i, code in enumerate(codes)}
    shape = (len(codes), max(map(len, profile.probs.values()), default=0) + 1)
    cum, nxt, scale = np.full(shape, np.inf), np.full(shape, -1), np.ones(shape)
    src, dst = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=np.intp)
    for i, code in enumerate(codes):
        total = 0.0
        for c, (succ, p) in enumerate(profile.probs[code].items()):
            total += p
            src[i, c], dst[i, c] = succ.pairs[-1]
            cum[i, c], nxt[i, c] = total, ids.get(succ, -1)
            scale[i, c] = 1.0 / profile.rates[TransitionKey(code, succ)]
    return cum, nxt, scale, src, dst


def simulate(profile: TransitionProfile, cold: TemporalGraph,
             rng: np.random.Generator) -> TemporalGraph:
    """Grow every cold event into a transition process and emit the result.

    The chains of codes and real-valued times are drawn first, level by
    level for all live processes at once. One pass in cold-event order then
    emits each process's events, resolving new digits against the adjacency
    of the events emitted before, and rounds the times to integer seconds.
    A brand-new node gets an id past every node of the cold events.
    """
    cum, nxt, scale, src, dst = _compile(profile)
    start = cold.t.astype(float)  # offsets from cold.t0, so any t0 stays exact
    every = np.arange(start.size)
    # per level: process, the entry's src and dst, time; level 0, the cold
    # event, has src -1 to mark where a process opens
    steps = [(every, np.full_like(every, -1), np.ones_like(every), start)]
    live = every if profile.probs.get(CODE_01) else every[:0]  # all start at 01
    st, t = np.zeros(live.size, dtype=np.intp), start[live]
    while live.size:
        u = rng.random(live.size)
        pick = np.zeros(live.size, dtype=np.intp)
        for c in range(cum.shape[1] - 1):  # the first entry whose sum > u
            pick += cum[st, c] <= u
        go = cum[st, pick] < np.inf  # past the row: the remaining stop mass
        live, st, pick = live[go], st[go], pick[go]
        t = t[go] + rng.exponential(scale[st, pick])
        steps.append((live, src[st, pick], dst[st, pick], t))
        go = nxt[st, pick] >= 0  # no row, as at l_max: stop
        live, st, t = live[go], nxt[st, pick][go], t[go]

    proc, *digits, t = map(np.concatenate, zip(*steps))
    order = np.argsort(proc, kind="stable")  # stable: each process keeps its level order
    ts = np.rint(t[order])
    if ts.size and ts.max() >= 2**63:  # past any graph's span, and int64's range
        raise GenerationError(f"replica times span {ts.max():.0f} s, 2**63 s or more")
    s_digits, d_digits = (a[order].tolist() for a in digits)  # by process, then level
    del steps, proc, digits, t, order  # a smaller peak: the pass reads only lists
    new_edge_p = new_edge_probability(
        profile, len(static_edges(cold.src, cold.dst, cold.node_count)[0]), len(cold))
    nodes: list[int] = []  # in order of first appearance
    out_partners: dict[int, dict[int, None]] = {}  # targets by source
    in_partners: dict[int, dict[int, None]] = {}  # sources by target
    ids = cold.nodes
    colds = zip(map(ids.__getitem__, cold.src.tolist()),
                map(ids.__getitem__, cold.dst.tolist()))
    minted, us, vs = ids[-1] if ids else -1, [], []
    for s_d, d_d in zip(s_digits, d_digits):
        if s_d < 0:  # the next cold event opens its process as digits 0 and 1
            nodes_v, s_d = list(next(colds)), 0
            for node in nodes_v:  # a node first appears in a cold event, or as a mint
                if node not in out_partners:
                    out_partners[node], in_partners[node] = {}, {}
                    nodes.append(node)
        elif len(nodes_v) in (s_d, d_d):  # a new digit: its partner becomes node n
            linked = (in_partners[nodes_v[d_d]] if s_d == len(nodes_v)
                      else out_partners[nodes_v[s_d]])
            w = select_edge_for_new_digit(nodes, linked, set(nodes_v), new_edge_p, rng)
            if w is None:
                minted = w = minted + 1
                out_partners[w], in_partners[w] = {}, {}
                nodes.append(w)
            nodes_v.append(w)
        u, v = nodes_v[s_d], nodes_v[d_d]
        out_partners[u][v] = in_partners[v][u] = None
        us.append(u)
        vs.append(v)
    return TemporalGraph.from_columns(us, vs, ts.astype(np.int64), cold.t0)


def generate(profile: TransitionProfile, config: GenerationConfig) -> TemporalGraph:
    """Cold-event synthesis followed by process simulation; deterministic
    for a fixed (profile, seed)."""
    rng = np.random.default_rng(config.seed)
    return simulate(profile, generate_cold_events(profile, rng), rng)
