"""Synthesis of a temporal graph from an extracted transition profile.

Cold events come first: a configuration model rewires the cold-event degree
sequence into static edges, the per-edge event-count multiset is shuffled
onto them, and the cold timestamps are dealt out accordingly. Each cold event
then seeds a transition process that walks the probability rows, draws
exponential gaps from the matching rates, and resolves new-node digits to
endpoints through the adjacency emitted so far. One generator, seeded once per
graph, supplies every draw: the cold events, then every chain's codes and
gaps level by level, then the partners of new digits in cold-event order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .codec import CODE_01
from .events import Event, TemporalGraph
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
                 rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform stub matching avoiding self-loops and duplicate pairs.

    Both tiers walk a forward Fisher-Yates shuffle of the in-stubs, step
    ``k`` drawing ``j ~ U[k, n)``. Whole-shuffle rejection, restarted at the
    first bad pair, keeps the matching exactly uniform over the admissible
    ones; when no clean shuffle shows up (likely only at scale) bad pairs
    are re-drawn locally and dropped as a last resort.
    """
    n, lows = len(out_stubs), np.arange(len(out_stubs))
    for _ in range(_SHUFFLE_TRIES):
        edges, pairs, moved = set(), [], {}  # moved: position -> in-stub index
        blocks = (rng.integers(lows[k:k + _BLOCK], n).tolist() for k in range(0, n, _BLOCK))
        for k, j in enumerate(chain.from_iterable(blocks)):
            s, d = out_stubs[k], in_stubs[moved.get(j, j)]
            moved[j] = moved.get(k, k)
            if s == d or (s, d) in edges:
                break
            edges.add((s, d))
            pairs.append((s, d))
        else:
            return pairs

    outs = [out_stubs[j] for j in rng.permutation(n).tolist()]
    ins = [in_stubs[j] for j in rng.permutation(n).tolist()]
    first = rng.integers(lows, n).tolist()
    edges, pairs = set(), []
    for k in range(n):
        s = outs[k]
        placed = -1
        for tries in range(_PAIR_TRIES):
            j = int(rng.integers(k, n)) if tries else first[k]
            if s != ins[j] and (s, ins[j]) not in edges:
                placed = j
                break
        if placed < 0:  # scan the remaining in-stubs before harsher measures
            for j in range(k, n):
                if s != ins[j] and (s, ins[j]) not in edges:
                    placed = j
                    break
        if placed >= 0:
            ins[k], ins[placed] = ins[placed], ins[k]
            edges.add((s, ins[k]))
            pairs.append((s, ins[k]))
        else:
            # re-target a placed pair to free a partner; failing even that,
            # the stub pair is genuinely unplaceable and gets dropped
            _repair_wedge(s, ins, k, n, edges, pairs)
    return pairs


def _repair_wedge(s: int, ins: list[int], k: int, n: int,
                  edges: set[tuple[int, int]],
                  pairs: list[tuple[int, int]]) -> bool:
    """Free a partner for out-stub ``s`` by re-targeting one placed pair."""
    for m in range(len(pairs)):
        s2, d2 = pairs[m]
        if s == d2 or (s, d2) in edges:
            continue
        for j in range(k, n):
            d = ins[j]
            if d != s2 and (s2, d) not in edges:
                ins[k], ins[j] = ins[j], ins[k]
                edges.remove((s2, d2))
                edges.add((s2, d))
                edges.add((s, d2))
                pairs[m] = (s2, d)
                pairs.append((s, d2))
                return True
    return False


def generate_cold_events(profile: TransitionProfile,
                         rng: np.random.Generator) -> list[Event]:
    """Rebuild the cold events of a synthetic run from the profile.

    The output reproduces the cold timestamp multiset exactly; its static
    projection realizes the extracted degree sequence up to dropped stub
    pairs.
    """
    in_stubs, out_stubs = ([i for i, k in enumerate(profile.k_ce) for _ in range(k[c])]
                           for c in (0, 1))
    pairs = _match_stubs(out_stubs, in_stubs, rng)
    if not pairs:
        raise GenerationError("stub matching produced no edges")

    weights = profile.ce_edge_weights
    assigned = [weights[j] for j in rng.permutation(len(weights))[:len(pairs)]]
    for _ in range(sum(weights) - sum(assigned)):  # events of dropped pairs
        assigned[int(rng.integers(len(assigned)))] += 1

    ts = iter([profile.t_ce[j] for j in rng.permutation(len(profile.t_ce)).tolist()])
    events = [Event(u, v, int(t))
              for (u, v), w in zip(pairs, assigned) for t in islice(ts, w)]
    return sorted(events, key=lambda e: e.t)


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


def simulate(profile: TransitionProfile, cold_events: list[Event],
             rng: np.random.Generator) -> TemporalGraph:
    """Grow every cold event into a transition process and emit the result.

    The chains of codes and real-valued times are drawn first, level by
    level for all live processes at once. One pass in cold-event order then
    emits each process's events, resolving new digits against the adjacency
    of the events emitted before, and rounds the times to integer seconds.
    A brand-new node gets an id past every node of the cold events.
    """
    cum, nxt, scale, src, dst = _compile(profile)
    t0 = min((e.t for e in cold_events), default=0)  # float offsets keep any t0 exact
    start = np.array([e.t - t0 for e in cold_events], dtype=float)
    live = np.arange(start.size if profile.probs.get(CODE_01) else 0)  # all start at 01
    st, t = np.zeros(live.size, dtype=np.intp), start[live]
    steps = []  # per level: process, the entry's src and dst, time
    while live.size or not steps:  # at least once, so that steps is not empty
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
    sizes = np.bincount(proc, minlength=start.size)
    ts = np.rint(np.insert(t[order], np.cumsum(sizes) - sizes, start))
    if ts.size and ts.max() >= 2**63:  # past any graph's span, and int64's range
        raise GenerationError(f"replica times span {ts.max():.0f} s, 2**63 s or more")
    steps = zip(*(a[order].tolist() for a in digits))  # by process, then level
    del proc, digits, t, order  # a smaller peak: the pass reads only lists
    new_edge_p = new_edge_probability(
        profile, len({(e.src, e.dst) for e in cold_events}), len(cold_events))
    nodes: list[int] = []  # in order of first appearance
    out_partners: dict[int, dict[int, None]] = {}  # targets by source
    in_partners: dict[int, dict[int, None]] = {}  # sources by target
    minted = max((max(e.src, e.dst) for e in cold_events), default=-1)
    us, vs = [], []
    for cold, size in zip(cold_events, sizes.tolist()):
        nodes_v = [cold.src, cold.dst]  # the cold event's digits 0 and 1 are in use
        for s_d, d_d in chain([(0, 1)], islice(steps, size)):
            if len(nodes_v) in (s_d, d_d):  # a new digit: its partner becomes node n
                linked = (in_partners[nodes_v[d_d]] if s_d == len(nodes_v)
                          else out_partners[nodes_v[s_d]])
                w = select_edge_for_new_digit(nodes, linked, set(nodes_v), new_edge_p, rng)
                if w is None:
                    minted = w = minted + 1
                nodes_v.append(w)
            u, v = nodes_v[s_d], nodes_v[d_d]
            for node in (u, v):
                if node not in out_partners:
                    out_partners[node], in_partners[node] = {}, {}
                    nodes.append(node)
            out_partners[u][v] = in_partners[v][u] = None
            us.append(u)
            vs.append(v)
    return TemporalGraph.from_columns(us, vs, ts.astype(np.int64), t0)


def generate(profile: TransitionProfile, config: GenerationConfig) -> TemporalGraph:
    """Cold-event synthesis followed by process simulation; deterministic
    for a fixed (profile, seed)."""
    rng = np.random.default_rng(config.seed)
    return simulate(profile, generate_cold_events(profile, rng), rng)
