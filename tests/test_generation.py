import hashlib
import random
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps

from motifgen import (
    CODE_01,
    Event,
    GenerationConfig,
    GenerationError,
    MotifCode,
    TemporalGraph,
    extract_profile,
    generate,
    generate_cold_events,
    load_profile,
    new_edge_probability,
    save_profile,
    simulate,
    write_events,
)
from motifgen import generation
from motifgen.extraction import TransitionKey
from motifgen.generation import select_edge_for_new_digit

from helpers import encode, make_profile, random_stream
from surrogate import desk_scale_stream


def code(s: str) -> MotifCode:
    return MotifCode.from_string(s)


# ------------------------------------------------------------- cold events

def test_forced_single_edge():
    profile = make_profile({}, k_ce=[(0, 1), (1, 0)], t_ce=[5],
                           ce_edge_weights=[1])
    events = generate_cold_events(profile, np.random.default_rng(0))
    assert [tuple(e) for e in events] == [(0, 1, 5)]


def test_cold_events_preserve_timestamps_and_stub_totals(monkeypatch):
    rng = random.Random(14)
    g = random_stream(rng, n_events=300, n_nodes=15, t_max=2000)
    profile = extract_profile(g, delta=100, l_max=3)
    for rounds_only in (False, True):
        if rounds_only:  # no whole-shuffle tries: the rounds of _match_stubs
            # repair a permutation with bad pairs in it
            monkeypatch.setattr(generation, "_WHOLE_SHUFFLES", 0)
        for seed in range(5):
            events = generate_cold_events(profile, np.random.default_rng(seed))
            assert len(events) == len(profile.t_ce)
            assert sorted(e.t for e in events) == sorted(profile.t_ce)
            # no pair dropped and none duplicated
            assert sum(out for _ind, out in profile.k_ce) == len(
                {(e.src, e.dst) for e in events})
            assert all(e.src != e.dst for e in events)
            assert [e.t for e in events] == sorted(e.t for e in events)


def test_dropped_stub_pair_events_are_spread_over_placed_pairs():
    # node 0 has two out- and two in-stubs, node 1 one of each: one of the
    # three stub pairs can only be a self-loop or a duplicate, so it drops
    profile = make_profile({}, k_ce=[(2, 2), (1, 1)], t_ce=[10, 20, 30, 40],
                           ce_edge_weights=[1, 1, 2])
    for seed in range(20):
        events = generate_cold_events(profile, np.random.default_rng(seed))
        assert len(events) == 4
        assert sorted(e.t for e in events) == [10, 20, 30, 40]
        assert all(e.src != e.dst for e in events)
        assert {(e.src, e.dst) for e in events} <= {(0, 1), (1, 0)}


def test_unbalanced_stub_totals_rejected():
    # no such profile can be built, so generation never sees one
    with pytest.raises(ValueError, match="unbalanced stub totals"):
        make_profile({}, k_ce=[(0, 2), (1, 0)], t_ce=[1, 2],
                     ce_edge_weights=[1, 1])


def test_stub_matching_uniform_over_admissible_wirings():
    # four nodes with in=out=1: the admissible wirings are the 9
    # derangements of 4 labels, each realized by exactly one matching
    profile = make_profile({}, k_ce=[(1, 1)] * 4, t_ce=[10, 20, 30, 40],
                           ce_edge_weights=[1, 1, 1, 1])
    from itertools import permutations
    admissible = {
        frozenset((i, p[i]) for i in range(4))
        for p in permutations(range(4)) if all(p[i] != i for i in range(4))
    }
    assert len(admissible) == 9

    runs = 1000
    seen: Counter = Counter()
    for seed in range(runs):
        events = generate_cold_events(profile, np.random.default_rng(seed))
        wiring = frozenset((e.src, e.dst) for e in events)
        assert wiring in admissible
        seen[wiring] += 1
    observed = [seen[w] for w in admissible]
    p_value = sps.chisquare(observed).pvalue
    assert p_value > 0.01


def test_rounds_reach_every_admissible_wiring(monkeypatch):
    # no whole-shuffle tries: the rounds repair every permutation with a
    # fixed point, and reach each of the 9 derangements, though not
    # uniformly (a four-cycle comes out more often than two swapped pairs)
    monkeypatch.setattr(generation, "_WHOLE_SHUFFLES", 0)
    profile = make_profile({}, k_ce=[(1, 1)] * 4, t_ce=[10, 20, 30, 40],
                           ce_edge_weights=[1, 1, 1, 1])
    seen: Counter = Counter()
    for seed in range(300):
        events = generate_cold_events(profile, np.random.default_rng(seed))
        assert sorted(e.src for e in events) == [0, 1, 2, 3]
        assert sorted(e.dst for e in events) == [0, 1, 2, 3]
        assert all(e.src != e.dst for e in events)
        seen[frozenset((e.src, e.dst) for e in events)] += 1
    assert len(seen) == 9


# ------------------------------------------------------------ edge choice

def test_new_edge_probability_formula():
    profile = make_profile({}, mu=3.0, input_edge_count=100)
    assert new_edge_probability(profile, n_cold_edges=40,
                                n_cold_events=40) == pytest.approx(0.75)
    # mu = 1: zero denominator clamps to certain creation
    assert new_edge_probability(make_profile({}, mu=1.0, input_edge_count=100),
                                n_cold_edges=40, n_cold_events=40) == 1.0
    # more cold edges than the input had edges: clamp at zero
    assert new_edge_probability(make_profile({}, mu=3.0, input_edge_count=10),
                                n_cold_edges=40, n_cold_events=40) == 0.0


def _adjacency(edges):
    """Nodes in order of first appearance, and targets by source and sources
    by target, with a key for every node."""
    nodes, out_partners, in_partners = [], {}, {}
    for u, v in edges:
        for node in (u, v):
            if node not in out_partners:
                out_partners[node], in_partners[node] = {}, {}
                nodes.append(node)
        out_partners[u][v] = in_partners[v][u] = None
    return nodes, out_partners, in_partners


def test_reuse_branch_picks_existing_edge_outside_motif():
    nodes, out_partners, in_partners = _adjacency([(1, 2), (1, 3), (4, 1)])
    draw = np.random.default_rng(3).random
    for _ in range(20):
        assert select_edge_for_new_digit(nodes, out_partners[1], {1, 2}, 0.0, draw) == 3
        assert select_edge_for_new_digit(nodes, in_partners[1], {1, 2}, 0.0, draw) == 4


def test_reuse_picks_are_uniform_over_partners_outside_the_motif():
    # hub 0 links to 12 nodes, two of them in the motif: each of the other
    # 10 comes out 1/10 of the time, within three sigma at 10^4 picks
    nodes, out_partners, _ = _adjacency([(0, w) for w in range(1, 13)])
    draw = np.random.default_rng(9).random
    n = 10_000
    picks = Counter(select_edge_for_new_digit(nodes, out_partners[0], {0, 3, 8}, 0.0, draw)
                    for _ in range(n))
    assert set(picks) == set(range(1, 13)) - {3, 8}
    sigma = (0.1 * 0.9 / n) ** 0.5
    assert all(abs(c / n - 0.1) <= 3 * sigma for c in picks.values()), picks


def test_reuse_falls_back_to_creation_when_no_candidate():
    # node 1's only out-partner is inside the motif; must create instead
    nodes, out_partners, _ = _adjacency([(1, 2), (5, 6)])
    draw = np.random.default_rng(4).random
    for _ in range(20):
        partner = select_edge_for_new_digit(nodes, out_partners[1], {1, 2}, 0.0, draw)
        assert partner in {5, 6}  # outside motif, no (1, partner) edge yet


def test_creation_branch_avoids_linked_and_motif_nodes(monkeypatch):
    nodes, out_partners, _ = _adjacency([(1, 2), (1, 3), (4, 5)])
    draw = np.random.default_rng(5).random
    for partner_tries in (generation._PARTNER_TRIES, 0):  # 0: the full scan
        monkeypatch.setattr(generation, "_PARTNER_TRIES", partner_tries)
        for _ in range(50):
            partner = select_edge_for_new_digit(nodes, out_partners[1], {1, 2}, 1.0, draw)
            assert partner not in {1, 2}       # outside the motif
            assert partner not in {2, 3}       # edge (1, partner) must be new
            assert partner in {4, 5}


def test_creation_mints_fresh_node_when_exhausted():
    nodes, out_partners, _ = _adjacency([(1, 2)])
    draw = np.random.default_rng(6).random
    assert select_edge_for_new_digit(nodes, out_partners[1], {1, 2}, 1.0, draw) is None


# -------------------------------------------------------------- simulation

def test_stop_everywhere_profile_outputs_cold_events_only():
    rng = random.Random(21)
    g = random_stream(rng, n_events=120, n_nodes=10, t_max=600)
    profile = extract_profile(g, delta=60, l_max=3)
    profile.probs.clear()
    out = generate(profile, GenerationConfig(seed=2))
    assert len(out.events) == profile.cold_event_count
    assert sorted(e.t for e in out.events) == sorted(profile.t_ce)


def test_minted_nodes_get_ids_past_every_cold_node():
    # the first process mints a node before the second cold event brings in
    # node 2, so the minted node must not be numbered 2
    profile = make_profile({"01": {"0112": 1.0}}, l_max=3)
    for seed in range(10):
        out = simulate(profile, TemporalGraph([Event(0, 1, 0), Event(2, 0, 100)]),
                       np.random.default_rng(seed))
        assert [(e.src, e.dst) for e in out.events][:2] == [(0, 1), (1, 3)]


def test_no_cold_events_give_an_empty_graph():
    profile = make_profile({"01": {"0112": 1.0}}, l_max=3)
    assert simulate(profile, TemporalGraph([]), np.random.default_rng(0)).events == ()


def test_exponential_transition_times():
    n = 10_000
    profile = make_profile(
        {"01": {"0110": 1.0}},
        rates={("01", "0110"): 0.25},
        l_max=2,
        k_ce=[(0, 1), (1, 0)],
        t_ce=[0] * n,
        ce_edge_weights=[n],
    )
    cold = generate_cold_events(profile, np.random.default_rng(0))
    out = simulate(profile, cold, np.random.default_rng(0))
    gaps = [e.t for e in out.events if (e.src, e.dst) == (1, 0)]
    assert len(gaps) == n
    assert np.mean(gaps) == pytest.approx(4.0, rel=0.10)


def test_branch_frequencies_match_rows():
    profile = make_profile(
        {"01": {"0112": 1.0},
         "0112": {"011202": 0.6, "011213": 0.4}},
        l_max=3,
    )
    n = 10_000
    outcomes: Counter = Counter()
    for seed in range(n):
        cold = TemporalGraph([Event(0, 1, 0)])
        out = simulate(profile, cold, np.random.default_rng(seed))
        outcomes[encode(out.events).render()] += 1
    freq_triangle = outcomes["011202"] / n
    freq_star = outcomes["011213"] / n
    assert freq_triangle == pytest.approx(0.6, abs=0.02)
    assert freq_star == pytest.approx(0.4, abs=0.02)


def test_single_process_codes_are_row_supported():
    rng = random.Random(33)
    g = random_stream(rng, n_events=250, n_nodes=8, t_max=800)
    profile = extract_profile(g, delta=120, l_max=4)
    for seed in range(200):
        cold = TemporalGraph([Event(1, 2, 0)])
        out = simulate(profile, cold, np.random.default_rng(seed))
        events = list(out.events)
        assert [e.t for e in events] == sorted(e.t for e in events)
        full = encode(events)
        assert full.l <= profile.l_max
        for k in range(1, full.l):
            src, dst = MotifCode(full.pairs[:k]), MotifCode(full.pairs[:k + 1])
            assert profile.probs[src][dst] > 0, (
                "emitted events realize an unsampled transition")


def test_expected_output_size_matches_markov_oracle():
    profile = make_profile(
        {"01": {"0110": 0.5, "0102": 0.3},
         "0110": {"011001": 0.4},
         "0102": {"010202": 0.5, "010203": 0.2}},
        l_max=3,
        k_ce=[(0, 1), (1, 0)] * 20,
        t_ce=list(range(0, 40_000, 1000)),
        ce_edge_weights=[2] * 20,
        mu=2.0,
        input_edge_count=30,
    )

    def expected_extensions(code_obj):
        if code_obj.l >= profile.l_max:
            return 0.0
        row = profile.probs.get(code_obj, {})
        return sum(p * (1.0 + expected_extensions(nxt))
                   for nxt, p in row.items())

    n_cold = len(profile.t_ce)
    analytic = n_cold * (1.0 + expected_extensions(CODE_01))

    runs = 150
    totals = [len(generate(profile, GenerationConfig(seed=s)).events)
              for s in range(runs)]
    mean = np.mean(totals)
    se = np.std(totals, ddof=1) / np.sqrt(runs)
    assert abs(mean - analytic) <= 3 * se + 1e-9


def test_tied_timestamps_keep_each_process_together():
    # every process emits its cold event and its extension at t = 50; the
    # graph keeps ties in emission order, which is process by process
    profile = make_profile({"01": {"0110": 1.0}}, rates={("01", "0110"): 1000.0},
                           l_max=2, k_ce=[(0, 1), (1, 0)], t_ce=[50] * 6,
                           ce_edge_weights=[6])
    out = generate(profile, GenerationConfig(seed=3))
    assert out.events == ((0, 1, 50), (1, 0, 50)) * 6


def test_compiled_table_is_the_profile():
    g = random_stream(random.Random(41), n_events=300, n_nodes=10, t_max=2000)
    for profile in (extract_profile(g, delta=150, l_max=4),
                    make_profile({"01": {"0110": 0.25, "0112": 0.75},
                                  "0112": {"011220": 1.0}}, l_max=3)):
        cum, nxt, scale, src, dst = generation._compile(profile)
        codes = sorted(c for c, row in profile.probs.items() if row)  # the states
        assert codes[0] == CODE_01
        assert cum.shape[0] == len(codes)
        for i, c in enumerate(codes):
            row = profile.probs[c]
            total = 0.0
            for e, (succ, p) in enumerate(row.items()):
                total += p
                assert cum[i, e] == total
                assert scale[i, e] == 1.0 / profile.rates[TransitionKey(c, succ)]
                assert (nxt[i, e] == -1) == (not profile.probs.get(succ))
                if nxt[i, e] >= 0:
                    assert codes[nxt[i, e]] == succ
                s_d, d_d = succ.pairs[-1]
                assert (src[i, e], dst[i, e]) == (s_d, d_d)
            assert abs(cum[i, len(row) - 1] - (1 - profile.stop_probability(c))) <= 1e-12
            assert np.all(cum[i, len(row):] == np.inf)
    # the last profile is the hand-made one, whose 01 row leaves no stop mass
    assert cum[0, 1] == 1.0 and profile.stop_probability(CODE_01) == 0.0


def test_generate_is_deterministic_per_seed():
    rng = random.Random(70)
    g = random_stream(rng, n_events=200, n_nodes=12, t_max=1500)
    profile = extract_profile(g, delta=90, l_max=4)
    out_a = generate(profile, GenerationConfig(seed=123))
    out_b = generate(profile, GenerationConfig(seed=123))
    assert write_events(out_a) == write_events(out_b)
    out_c = generate(profile, GenerationConfig(seed=124))
    assert write_events(out_c) != write_events(out_a)


def test_generated_graph_is_time_sorted_and_loopless():
    rng = random.Random(90)
    g = random_stream(rng, n_events=300, n_nodes=10, t_max=2000)
    profile = extract_profile(g, delta=150, l_max=4)
    out = generate(profile, GenerationConfig(seed=5))
    ts = [e.t for e in out.events]
    assert ts == sorted(ts)
    assert all(e.src != e.dst for e in out.events)
    assert len(out.events) >= profile.cold_event_count


# ------------------------------------------------------------ pinned bytes

def _digest(g: TemporalGraph) -> str:
    return hashlib.sha256(write_events(g).encode("ascii")).hexdigest()


def test_generated_bytes_are_pinned(tmp_path):
    # any change to the sampler, the profile or its format that alters the
    # output shows up here, even when the statistics still pass
    g = random_stream(random.Random(2026), n_events=200, n_nodes=12, t_max=1500)
    profile = extract_profile(g, delta=90, l_max=4)
    path = tmp_path / "profile.json"
    save_profile(profile, path)
    for p in (profile, load_profile(path)):
        assert _digest(generate(p, GenerationConfig(seed=7))) == (
            "9e3fe7b836f29c9360bebaa21d7ae0b916ec0329658a03e530dbcafd3cc04b2a")


def test_generated_bytes_are_pinned_on_a_dense_stream():
    # 966 partner picks: 138 reuses of an existing edge, 827 new edges and
    # one minted node, 161 of these 828 after a reuse found no partner
    # outside the motif: every branch of select_edge_for_new_digit but the
    # scan that finds a partner reaches these bytes
    g = desk_scale_stream(n_events=3000, mean_iet=10.0)
    profile = extract_profile(g, delta=3600, l_max=4)
    assert _digest(generate(profile, GenerationConfig(seed=8))) == (
        "b67e8685e3b22609dae58e65b4c4dad8b2348fb18a3c3e9b64bb9f4c2c6cf959")


def test_shifting_the_input_shifts_the_replica_exactly():
    # a float holds every integer only below 2**53, but the parser accepts
    # any timestamp (Unix nanoseconds are about 1.7e18): times are drawn as
    # offsets from the first cold event, so a shift by 2**60 passes through
    g = desk_scale_stream(n_events=3000, mean_iet=10.0)
    far = TemporalGraph.from_events((e.src, e.dst, e.t + 2**60) for e in g.events)
    near, shifted = (generate(extract_profile(h, delta=3600, l_max=4),
                              GenerationConfig(seed=7)) for h in (g, far))
    assert len(near) == 3234
    assert shifted.events == tuple(e._replace(t=e.t + 2**60) for e in near.events)


def test_a_replica_spanning_2_63_seconds_raises():
    # cold timestamps 2**63 s apart: no graph holds that span, and the
    # graph, which owns that rule, raises
    profile = make_profile({}, t_ce=[5, 5 + 2**63])
    with pytest.raises(ValueError, match=r"2\*\*63") as exc:
        generate(profile, GenerationConfig(seed=0))
    assert type(exc.value) is ValueError


def test_cold_times_past_2_53_seconds_apart_stay_exact():
    # a float holds every integer only below 2**53: the replica's times
    # are the cold events' integer offsets plus integer gaps
    profile = make_profile({}, t_ce=[0, 2**53 + 1])
    assert [e.t for e in generate(profile, GenerationConfig(seed=0))] == [0, 2**53 + 1]
    for last in (2**60 + 3, 2**63 - 101):
        profile = make_profile({"01": {"0112": 1.0}}, t_ce=[0, last],
                               k_ce=[(0, 1), (1, 0), (1, 1)], ce_edge_weights=[1, 1])
        for seed in range(5):
            out = [e.t for e in generate(profile, GenerationConfig(seed=seed))]
            assert len(out) == 4 and {0, last} <= set(out)
            assert all(0 <= t < 100 or 0 <= t - last < 100 for t in out)
    # a gap below 2**63 s that carries a late process past it
    profile = make_profile({"01": {"0110": 1.0}}, rates={("01", "0110"): 1e-6},
                           l_max=2, t_ce=[0, 2**63 - 2], ce_edge_weights=[2])
    with pytest.raises(GenerationError, match=r"replica times span .*2\*\*63"):
        generate(profile, GenerationConfig(seed=0))


def test_gaps_carrying_a_replica_past_2_63_seconds_raise():
    # the cold times lie close together, but a mean gap of 1e21 s carries
    # the replica past any graph's span
    profile = make_profile({"01": {"0110": 1.0}}, rates={("01", "0110"): 1e-21},
                           l_max=2, k_ce=[(0, 1), (1, 0)], t_ce=[0], ce_edge_weights=[1])
    with pytest.raises(GenerationError, match=r"replica times span .*2\*\*63"):
        generate(profile, GenerationConfig(seed=0))


def test_cold_times_past_int64_with_a_small_span_stay_exact():
    # the times lie far past int64, their span does not: offsets carry them
    profile = make_profile({"01": {"0112": 1.0}}, t_ce=[2**70, 2**70 + 5],
                           k_ce=[(0, 1), (1, 0), (1, 1)], ce_edge_weights=[1, 1])
    for seed in range(5):
        cold = generate_cold_events(profile, np.random.default_rng(seed))
        assert [e.t for e in cold] == [2**70, 2**70 + 5]
        out = generate(profile, GenerationConfig(seed=seed))
        assert out.t0 == 2**70 and {2**70, 2**70 + 5} <= {e.t for e in out}


# the toy stream of test_extraction at delta=5, l_max=3, as the version 1
# writer saved it (derived probs, rates, mu and cold count included)
TOY_EVENTS = [(11, 12, 1), (12, 10, 4), (11, 10, 5), (10, 12, 7), (10, 11, 8),
              (10, 11, 9)]
TOY_PROFILE_V1 = (
    '{"version": 1, "l_max": 3, "delta": 5, "mu": 2.5, "cold_event_count": 2,'
    ' "input_event_count": 6, "input_edge_count": 5,'
    ' "k_ce": [[0, 1], [0, 1], [2, 0]], "t_ce": [1, 7], "ce_edge_weights": [1, 1],'
    ' "probs": {"01": {"0102": 0.5, "0112": 0.5}, "0102": {"010202": 1.0},'
    ' "0112": {"011202": 1.0}},'
    ' "rates": {"01": {"0102": 1.0, "0112": 0.3333333333333333},'
    ' "0102": {"010202": 1.0}, "0112": {"011202": 1.0}},'
    ' "counts": {"01": {"0102": 1, "0112": 1}, "0102": {"010202": 1},'
    ' "0112": {"011202": 1}, "010202": {"stop": 1}, "011202": {"stop": 1}},'
    ' "delta_t": {"01": {"0102": [1, 1], "0112": [3, 1]},'
    ' "0102": {"010202": [1, 1]}, "0112": {"011202": [1, 1]}}}')


def test_version_1_profile_loads_and_generates_the_same_bytes(tmp_path):
    path = tmp_path / "toy_v1.json"
    path.write_text(TOY_PROFILE_V1)
    loaded = load_profile(path)
    extracted = extract_profile(TemporalGraph.from_events(TOY_EVENTS),
                                delta=5, l_max=3)
    assert loaded == extracted
    for p in (loaded, extracted):
        assert _digest(generate(p, GenerationConfig(seed=1))) == (
            "9ddc9d4b4b9dd308c297887dfeb9c09bc8d1643b6ae036ec411b443eea422299")
