"""Synthesis of a temporal graph from an extracted transition profile.

Cold events come first: a configuration model rewires the cold-event degree
sequence into static edges, the per-edge event-count multiset is shuffled onto
them, and the cold timestamps are dealt out into a graph's columns. Each cold
event then seeds a transition process that walks the probability rows, draws
exponential gaps from the matching rates, and resolves new-node digits to
endpoints through the adjacency emitted so far. One generator, seeded once per
graph, supplies every draw in numpy blocks: the stub matching, the weights and
the times of the cold events, then every chain's codes and gaps level by
level, then a stream of uniforms for the partners of new digits in cold-event
order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .codec import CODE_01
from .events import TemporalGraph, static_edges
from .extraction import TransitionKey, TransitionProfile

_WHOLE_SHUFFLES = 5
_STALL_ROUNDS = 64
_PARTNER_TRIES = 64
_UNIFORMS = 4096  # partner-pick uniforms per numpy call


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class GenerationConfig:
    """The seed that makes a run reproducible."""

    seed: int


def _bad_pairs(src: np.ndarray, dst: np.ndarray, n_nodes: int) -> np.ndarray:
    """The positions of self-loops and of every repeat of a pair after its
    first, found with one sort of the pairs' keys."""
    key = src * n_nodes + dst
    order = np.argsort(key)  # not stable: a pair's first copy is the lowest
    key = key[order]  # position among its copies, in whatever order they come
    first = np.minimum.reduceat(order, np.flatnonzero(np.diff(key, prepend=-1)))
    repeat = np.ones(key.size, bool)
    repeat[first] = False
    return np.flatnonzero(repeat | (src == dst))


def _match_stubs(out_stubs: np.ndarray, in_stubs: np.ndarray, n_nodes: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Stub matching avoiding self-loops and duplicate pairs; returns the
    matched pairs' sources and targets, a node's id standing once per stub.

    Up to ``_WHOLE_SHUFFLES`` uniform permutations of the in-stubs are tried
    whole, each rejected at any bad pair: one that passes is exactly uniform
    over the admissible matchings, and small inputs end here. Otherwise
    rounds repair a fresh permutation. Each round re-deals, in uniform
    order, the in-stubs at the bad positions (self-loops, and each repeat of
    a pair after its first) and at as many positions drawn uniformly with
    replacement, until no position is bad. The rounds are not exactly
    uniform over the admissible matchings: a round moves only the positions
    it re-deals, so matchings a few moves from many bad permutations come
    out more often (on four nodes with one stub each, a four-cycle 0.13 of
    the time and two swapped pairs 0.07, against 1/9). The rounds stop
    making progress when ``_STALL_ROUNDS`` in a row leave no fewer bad
    positions than the fewest so far; only then do the bad positions' stub
    pairs drop.
    """
    n = in_stubs.size
    for _ in range(_WHOLE_SHUFFLES):  # at scale, each fails at a self-loop
        dst = in_stubs[rng.permutation(n)]
        if not (out_stubs == dst).any() and not _bad_pairs(out_stubs, dst, n_nodes).size:
            return out_stubs, dst
    dst = in_stubs[rng.permutation(n)]
    bad = _bad_pairs(out_stubs, dst, n_nodes)
    fewest, stalled = bad.size, 0
    while bad.size and stalled < _STALL_ROUNDS:
        redeal = np.zeros(n, bool)  # a mask, not np.unique: that imports numpy.ma
        redeal[bad] = True
        redeal[rng.integers(n, size=bad.size)] = True
        redeal = np.flatnonzero(redeal)
        dst[redeal] = dst[rng.permutation(redeal)]
        bad = _bad_pairs(out_stubs, dst, n_nodes)
        if bad.size < fewest:
            fewest, stalled = bad.size, 0
        else:
            stalled += 1
    kept = np.ones(n, bool)
    kept[bad] = False
    return out_stubs[kept], dst[kept]


def generate_cold_events(profile: TransitionProfile,
                         rng: np.random.Generator) -> TemporalGraph:
    """Rebuild the cold events of a synthetic run from the profile.

    The output reproduces the cold timestamp multiset exactly; its static
    projection realizes the extracted degree sequence up to dropped stub
    pairs, whose events go one by one to uniformly drawn placed pairs. Each
    matched pair takes as many permuted times as its weight; the graph takes
    them as they are, and owns the rule on their span.
    """
    t = profile.t_ce  # Python ints of any size, so permuted as objects
    ins, outs = (np.repeat(np.arange(len(k)), k) for k in zip(*profile.k_ce))
    src, dst = _match_stubs(outs, ins, len(profile.k_ce), rng)
    if not src.size:
        raise GenerationError("stub matching produced no edges")

    weights = np.asarray(profile.ce_edge_weights)
    assigned = weights[rng.permutation(len(weights))[:len(src)]]
    dropped = len(t) - int(assigned.sum())  # events of dropped pairs
    np.add.at(assigned, rng.integers(len(assigned), size=dropped), 1)
    return TemporalGraph.from_columns(np.repeat(src, assigned), np.repeat(dst, assigned),
                                      np.array(t, dtype=object)[rng.permutation(len(t))])


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
                              draw: Callable[[], float]) -> int | None:
    """Pick the free endpoint of the event bringing a new node into a motif.

    ``linked`` holds the fixed node's partners in the new event's direction
    and ``nodes`` every node emitted so far. With probability ``new_edge_p``
    a node not yet linked is chosen, otherwise an existing edge off the
    fixed node is reused; the partner always lies outside ``motif_nodes`` so
    the emitted event realizes the sampled code. Falls back from reuse to
    creation, and from creation to ``None``: a brand-new node, which the
    caller mints. ``draw`` returns the next uniform in [0, 1), a multiple of
    2**-53; an index into ``n`` items is ``int(u * n)``, which biases a pick
    by at most n / 2**53.
    """
    if draw() >= new_edge_p:
        candidates = [w for w in linked if w not in motif_nodes]
        if candidates:
            return candidates[int(draw() * len(candidates))]
    for _ in range(_PARTNER_TRIES):
        w = nodes[int(draw() * len(nodes))]
        if w not in motif_nodes and w not in linked:
            return w
    candidates = [w for w in nodes if w not in motif_nodes and w not in linked]
    if candidates:
        return candidates[int(draw() * len(candidates))]
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

    The chains of codes and gaps are drawn first, level by level for all
    live processes at once; a process's gaps are summed in float from 0,
    rounded once and added to its cold event's int64 offset. One pass in
    cold-event order then emits each process's events, resolving new digits
    against the adjacency of the events emitted before. A brand-new node
    gets an id past every node of the cold events.
    """
    cum, nxt, scale, src, dst = _compile(profile)
    every = np.arange(len(cold))
    # per level: process, the entry's src and dst, the time since the cold
    # event; level 0, the cold event, has src -1 to mark where a process opens
    steps = [(every, np.full_like(every, -1), np.ones_like(every), np.zeros(every.size))]
    live = every if profile.probs.get(CODE_01) else every[:0]  # all start at 01
    st, t = np.zeros(live.size, dtype=np.intp), np.zeros(live.size)
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
    gap, ts = np.rint(t[order]), cold.t[proc[order]]  # ts: its cold event's offset
    # past any graph's span; the gap test comes first, as the int64 cast would wrap
    if gap.max(initial=0) >= 2**63 or (gap.astype(np.int64) > 2**63 - 1 - ts).any():
        raise GenerationError(f"replica times span {(ts + gap).max():.0f} s, 2**63 s or more")
    ts += gap.astype(np.int64)
    s_digits, d_digits = (a[order].tolist() for a in digits)  # by process, then level
    del steps, proc, digits, t, order, gap  # a smaller peak: the pass reads only lists
    new_edge_p = new_edge_probability(
        profile, len(static_edges(cold.src, cold.dst, cold.node_count)[0]), len(cold))
    nodes: list[int] = []  # in order of first appearance
    out_partners: dict[int, dict[int, None]] = {}  # targets by source
    in_partners: dict[int, dict[int, None]] = {}  # sources by target
    ids = cold.nodes
    colds = zip(map(ids.__getitem__, cold.src.tolist()),
                map(ids.__getitem__, cold.dst.tolist()))
    minted, us, vs = ids[-1] if ids else -1, [], []
    draw = chain.from_iterable(iter(lambda: rng.random(_UNIFORMS).tolist(), None)).__next__
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
            w = select_edge_for_new_digit(nodes, linked, set(nodes_v), new_edge_p, draw)
            if w is None:
                minted = w = minted + 1
                out_partners[w], in_partners[w] = {}, {}
                nodes.append(w)
            nodes_v.append(w)
        u, v = nodes_v[s_d], nodes_v[d_d]
        out_partners[u][v] = in_partners[v][u] = None
        us.append(u)
        vs.append(v)
    del out_partners, in_partners, s_digits, d_digits, nodes, colds  # a smaller peak
    return TemporalGraph.from_columns(us, vs, ts, cold.t0)


def generate(profile: TransitionProfile, config: GenerationConfig) -> TemporalGraph:
    """Cold-event synthesis followed by process simulation; deterministic
    for a fixed (profile, seed)."""
    rng = np.random.default_rng(config.seed)
    return simulate(profile, generate_cold_events(profile, rng), rng)
