"""Synthesis of a temporal graph from an extracted transition profile.

Cold events are rebuilt first: a configuration model rewires the cold-event
degree sequence into static edges, the per-edge event-count multiset is
shuffled onto those edges, and the original cold timestamps are dealt out
accordingly. Each cold event then seeds a simulated transition process that
walks the extracted probability rows, draws exponential inter-event gaps
from the matching rates, and resolves new-node digits to concrete endpoints
through the shared output state. One generator, seeded once per generated
graph, supplies every random draw: first the cold events, then the
processes in cold-event order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import CODE_01, MotifCode
from .events import Event, TemporalGraph
from .extraction import TransitionKey, TransitionProfile

_SHUFFLE_TRIES = 100
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

    Whole-permutation rejection keeps the matching exactly uniform over the
    admissible ones; when no clean permutation shows up (likely only at
    scale) bad pairs are re-drawn locally and dropped as a last resort.
    """
    n = len(out_stubs)
    for _ in range(_SHUFFLE_TRIES):
        perm = rng.permutation(n)
        edges: set[tuple[int, int]] = set()
        pairs: list[tuple[int, int]] = []
        for k in range(n):
            s, d = out_stubs[k], in_stubs[perm[k]]
            if s == d or (s, d) in edges:
                break
            edges.add((s, d))
            pairs.append((s, d))
        else:
            return pairs

    outs = [out_stubs[j] for j in rng.permutation(n)]
    ins = [in_stubs[j] for j in rng.permutation(n)]
    edges: set[tuple[int, int]] = set()
    pairs = []
    for k in range(n):
        s = outs[k]
        placed = -1
        for _ in range(_PAIR_TRIES):
            j = int(rng.integers(k, n))
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
    out_stubs = [i for i, (_ind, out) in enumerate(profile.k_ce)
                 for _ in range(out)]
    in_stubs = [i for i, (ind, _out) in enumerate(profile.k_ce)
                for _ in range(ind)]
    pairs = _match_stubs(out_stubs, in_stubs, rng)
    if not pairs:
        raise GenerationError("stub matching produced no edges")

    weights = profile.ce_edge_weights
    assigned = [weights[j] for j in rng.permutation(len(weights))[:len(pairs)]]
    for _ in range(sum(weights) - sum(assigned)):  # events of dropped pairs
        assigned[int(rng.integers(len(assigned)))] += 1

    ts = [profile.t_ce[j] for j in rng.permutation(len(profile.t_ce))]
    events: list[Event] = []
    pos = 0
    for (u, v), w in zip(pairs, assigned):
        for t in ts[pos:pos + w]:
            events.append(Event(u, v, int(t)))
        pos += w
    events.sort(key=lambda e: e.t)
    return events


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


class OutputState:
    """Static projection of the events emitted so far: partner maps with a
    key for every node seen, and those nodes in order of first appearance."""

    def __init__(self, new_edge_p: float = 1.0):
        self.new_edge_p = new_edge_p
        self.nodes: list[int] = []
        self.out_partners: dict[int, dict[int, None]] = {}  # targets by source
        self.in_partners: dict[int, dict[int, None]] = {}  # sources by target
        self.next_node = 0  # one past the largest node id seen

    def add_event(self, u: int, v: int) -> None:
        for node in (u, v):
            if node not in self.out_partners:
                self.out_partners[node] = {}
                self.in_partners[node] = {}
                self.nodes.append(node)
                self.next_node = max(self.next_node, node + 1)
        self.out_partners[u][v] = self.in_partners[v][u] = None


def select_edge_for_new_digit(state: OutputState, fixed_node: int,
                              direction: str, motif_nodes: set[int],
                              rng: np.random.Generator) -> int:
    """Pick the free endpoint of the event bringing a new node into a motif.

    ``direction`` is ``"out"`` when the fixed node is the source of the new
    event and ``"in"`` when it is the target. With the state's new-edge
    probability a node not yet linked to the fixed one (in that direction)
    is chosen, otherwise an existing edge off the fixed node is reused; the
    partner always lies outside ``motif_nodes`` so the emitted event
    realizes the sampled code. Falls back from reuse to creation, and from
    creation to a brand-new node (``next_node``, which the caller's
    ``add_event`` registers), so it always returns.
    """
    table = state.out_partners if direction == "out" else state.in_partners
    linked = table[fixed_node]
    if rng.random() >= state.new_edge_p:
        candidates = [w for w in linked if w not in motif_nodes]
        if candidates:
            return candidates[int(rng.integers(len(candidates)))]
    nodes = state.nodes
    for _ in range(_PARTNER_TRIES):
        w = nodes[int(rng.integers(len(nodes)))]
        if w not in motif_nodes and w not in linked:
            return w
    candidates = [w for w in nodes if w not in motif_nodes and w not in linked]
    if candidates:
        return candidates[int(rng.integers(len(candidates)))]
    return state.next_node


def _sample_next(row: dict[MotifCode, float], u: float) -> MotifCode | None:
    cum = 0.0
    for code, p in row.items():
        cum += p
        if u < cum:
            return code
    return None  # the remaining mass is the stop state


def simulate(profile: TransitionProfile, cold_events: list[Event],
             rng: np.random.Generator) -> TemporalGraph:
    """Grow every cold event into a transition process and emit the result.

    Timestamps are kept real-valued while a process grows (so within-process
    order is exact) and rounded to integer seconds on output. The processes
    run in cold-event order and all draw from ``rng``.
    """
    state = OutputState(new_edge_probability(
        profile,
        n_cold_edges=len({(e.src, e.dst) for e in cold_events}),
        n_cold_events=len(cold_events),
    ))
    raw: list[tuple[int, int, float]] = []
    for cold in cold_events:
        state.add_event(cold.src, cold.dst)
        raw.append((cold.src, cold.dst, float(cold.t)))
        nodes_v = [cold.src, cold.dst]
        code = CODE_01
        t = float(cold.t)
        while row := profile.probs.get(code):  # no row, as at l_max: stop
            nxt = _sample_next(row, rng.random())
            if nxt is None:
                break
            s_d, d_d = nxt.pairs[-1]
            if s_d == len(nodes_v):
                v_node = nodes_v[d_d]
                u_node = select_edge_for_new_digit(state, v_node, "in",
                                                   set(nodes_v), rng)
                nodes_v.append(u_node)
            elif d_d == len(nodes_v):
                u_node = nodes_v[s_d]
                v_node = select_edge_for_new_digit(state, u_node, "out",
                                                   set(nodes_v), rng)
                nodes_v.append(v_node)
            else:
                u_node, v_node = nodes_v[s_d], nodes_v[d_d]
            # every row entry has a positive rate: both derive from one count
            t += rng.exponential(1.0 / profile.rates[TransitionKey(code, nxt)])
            raw.append((u_node, v_node, t))
            state.add_event(u_node, v_node)
            code = nxt

    events = [Event(u, v, int(round(t))) for u, v, t in raw]
    return TemporalGraph.from_events(events)


def generate(profile: TransitionProfile, config: GenerationConfig) -> TemporalGraph:
    """Cold-event synthesis followed by process simulation; deterministic
    for a fixed (profile, seed)."""
    rng = np.random.default_rng(config.seed)
    return simulate(profile, generate_cold_events(profile, rng), rng)
