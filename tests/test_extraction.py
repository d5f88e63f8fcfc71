import copy
import hashlib
import json
import math
import pickle
import random
from collections import Counter

import pytest

from motifgen import (
    STOP,
    GenerationConfig,
    MotifCode,
    TemporalGraph,
    TransitionProfile,
    cold_event_fraction,
    extract_profile,
    generate,
    load_profile,
    observed_transition_type_count,
    save_profile,
    write_events,
)
from motifgen.extraction import TransitionKey, profile_from_dict, profile_to_dict

from helpers import (disjoint_groups_stream, oracle_extract,
                     profile_counts_as_oracle, random_stream)
from surrogate import desk_scale_stream


def code(s: str) -> MotifCode:
    return MotifCode.from_string(s)


A, B, C = 10, 11, 12
TOY_STREAM = TemporalGraph.from_events(
    [(B, C, 1), (C, A, 4), (B, A, 5), (A, C, 7), (A, B, 8), (A, B, 9)])


def test_toy_stream_trace():
    profile = extract_profile(TOY_STREAM, delta=5, l_max=3, keep_processes=True)
    assert profile.cold_event_count == 2
    assert profile.t_ce == [1, 7]
    assert profile.mu == pytest.approx(2.5)  # triangle (3 edges) + repeat (2)

    first, second = profile.processes
    assert first.code == code("011202")
    assert (first.events[0].t, first.events[-1].t) == (1, 5)
    assert first.stop_reason == "size"
    assert second.code == code("010202")
    assert (second.events[0].t, second.events[-1].t) == (7, 9)

    expected_counts = {
        ("01", "0112"): 1,
        ("0112", "011202"): 1,
        ("01", "0102"): 1,
        ("0102", "010202"): 1,
    }
    observed = {(k.src.render(), k.dst.render()): v
                for k, v in profile.counts.items() if k.dst is not STOP}
    assert observed == expected_counts
    assert profile.delta_t_sums[TransitionKey(code("01"), code("0112"))] == (3, 1)
    assert cold_event_fraction(profile) == pytest.approx(2 / 6)


def test_single_event_graph():
    profile = extract_profile(TemporalGraph.from_events([(1, 2, 0)]),
                              delta=10, l_max=3)
    assert profile.cold_event_count == 1
    assert profile.probs == {}
    assert profile.mu == 1.0
    assert cold_event_fraction(profile) == 1.0
    assert observed_transition_type_count(profile) == 0


def test_two_event_bounce():
    g = TemporalGraph.from_events([(1, 2, 1), (2, 1, 2)])
    profile = extract_profile(g, delta=10, l_max=2)
    assert observed_transition_type_count(profile) == 1
    assert profile.probs[code("01")] == {code("0110"): 1.0}
    assert profile.rates[TransitionKey(code("01"), code("0110"))] == 1.0


def test_preconditions():
    g = TemporalGraph.from_events([(1, 2, 0)])
    with pytest.raises(ValueError):
        extract_profile(g, delta=10, l_max=1)
    with pytest.raises(ValueError):
        extract_profile(g, delta=0, l_max=2)
    with pytest.raises(ValueError):
        extract_profile(TemporalGraph.from_events([]), delta=10, l_max=2)


def test_rows_normalize_with_stop_mass():
    rng = random.Random(3)
    for trial in range(20):
        g = random_stream(rng, n_events=60, n_nodes=6, t_max=120)
        profile = extract_profile(g, delta=rng.randint(1, 40),
                                  l_max=rng.randint(2, 4))
        for src, row in profile.probs.items():
            total = sum(row.values()) + profile.stop_probability(src)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= p <= 1.0 for p in row.values())
            assert 0.0 <= profile.stop_probability(src) <= 1.0
        assert profile.stop_probability(code("0101010101")) == 1.0  # no row


def test_every_event_cold_or_extender():
    rng = random.Random(5)
    g = random_stream(rng, n_events=80, n_nodes=5, t_max=200)
    profile = extract_profile(g, delta=30, l_max=4)
    extension_instances = sum(
        c for k, c in profile.counts.items() if k.dst is not STOP)
    # multi-extensions make instances >= hot events
    assert extension_instances >= len(g.events) - profile.cold_event_count
    stop_instances = sum(
        c for k, c in profile.counts.items() if k.dst is STOP)
    assert stop_instances == profile.cold_event_count


def test_observed_types_bounded_by_spectrum():
    from motifgen import transition_type_count
    rng = random.Random(99)
    for l_max in (2, 3, 4):
        bound = transition_type_count(l_max)
        for _ in range(8):
            g = random_stream(rng, n_events=150, n_nodes=4, t_max=150)
            profile = extract_profile(g, delta=50, l_max=l_max)
            assert observed_transition_type_count(profile) <= bound


def test_observed_keys_respect_prefix_relation():
    rng = random.Random(11)
    g = random_stream(rng, n_events=100, n_nodes=6, t_max=150)
    profile = extract_profile(g, delta=25, l_max=4)
    for key in profile.counts:
        if key.dst is STOP:
            continue
        assert key.dst.pairs[:-1] == key.src.pairs


def test_zero_gap_transition_floors_rate():
    g = TemporalGraph.from_events([(1, 2, 5), (2, 3, 5)])
    profile = extract_profile(g, delta=10, l_max=2)
    key = TransitionKey(code("01"), code("0112"))
    assert profile.delta_t_sums[key] == (0, 1)
    assert profile.rates[key] == 1.0  # mean floored at the 1s resolution


def _assert_matches_oracle(g: TemporalGraph, delta: int, l_max: int) -> None:
    profile = extract_profile(g, delta=delta, l_max=l_max)
    oracle = oracle_extract(g, delta=delta, l_max=l_max)
    assert profile.cold_event_count == len(oracle["cold_events"])
    assert profile.t_ce == [e.t for e in oracle["cold_events"]]
    weights = Counter((e.src, e.dst) for e in oracle["cold_events"])
    assert sorted(profile.ce_edge_weights) == sorted(weights.values())
    in_deg, out_deg = Counter(), Counter()
    for u, v in weights:
        out_deg[u] += 1
        in_deg[v] += 1
    nodes = sorted(set(in_deg) | set(out_deg))
    assert profile.k_ce == [(in_deg[n], out_deg[n]) for n in nodes]
    assert profile_counts_as_oracle(profile) == oracle["counts"]
    assert profile.delta_t_sums == {
        TransitionKey(src, dst): v
        for (src, dst), v in oracle["delta_t_sums"].items()}
    assert profile.mu == pytest.approx(oracle["mu"])


def test_matches_oracle_on_random_streams():
    rng = random.Random(2024)
    for trial in range(120):
        g = random_stream(rng, n_events=rng.randint(1, 10),
                          n_nodes=rng.randint(2, 5), t_max=30)
        _assert_matches_oracle(g, delta=rng.randint(1, 12),
                               l_max=rng.randint(2, 5))
    # many concurrent disjoint processes, most of them never touched by
    # the next event, under a delta that in half the trials outlasts the stream
    for trial in range(40):
        g = disjoint_groups_stream(rng, n_events=rng.randint(20, 60),
                                   n_groups=rng.randint(8, 20),
                                   group_size=rng.randint(2, 3), t_max=40)
        _assert_matches_oracle(g, delta=rng.choice((25, 1000)),
                               l_max=rng.randint(2, 5))


def test_matches_oracle_on_longer_streams():
    # beyond the acceptance criterion's tiny streams: exercises snapshot
    # semantics, expiry and multi-extension at realistic depth
    rng = random.Random(777)
    for _ in range(60):
        g = random_stream(rng, n_events=rng.randint(20, 60),
                          n_nodes=rng.randint(3, 10),
                          t_max=rng.randint(20, 200))
        delta = rng.randint(1, 60)
        l_max = rng.randint(2, 6)
        profile = extract_profile(g, delta=delta, l_max=l_max)
        oracle = oracle_extract(g, delta=delta, l_max=l_max)
        assert profile.t_ce == [e.t for e in oracle["cold_events"]]
        assert profile_counts_as_oracle(profile) == oracle["counts"]


def test_gap_sums_past_int64_match_oracle():
    # three overlapping 01 -> 0101 processes, each gap 2**62: the sum of the
    # three gaps passes the int64 maximum
    g = TemporalGraph.from_events([(0, 1, 0), (2, 3, 1), (4, 5, 2), (0, 1, 2**62),
                                   (2, 3, 2**62 + 1), (4, 5, 2**62 + 2)])
    _assert_matches_oracle(g, delta=2**62 + 5, l_max=2)
    profile = extract_profile(g, delta=2**62 + 5, l_max=2)
    key = TransitionKey(code("01"), code("0101"))
    assert profile.delta_t_sums == {key: (3 * 2**62, 3)}


def test_delta_past_the_span_acts_as_the_span():
    rng = random.Random(58)
    for _ in range(20):
        g = random_stream(rng, n_events=rng.randint(2, 40), n_nodes=rng.randint(2, 6),
                          t_max=rng.randint(2, 100))
        if not g.timespan:
            continue
        l_max = rng.randint(2, 5)
        wide, span = (extract_profile(g, delta=d, l_max=l_max) for d in (2**70, g.timespan))
        assert (wide.counts, wide.delta_t_sums, wide.t_ce, wide.k_ce) == (
            span.counts, span.delta_t_sums, span.t_ce, span.k_ce)
        _assert_matches_oracle(g, delta=2**70, l_max=l_max)


@pytest.mark.parametrize("l_max", [13, 10**6])
def test_thirteen_event_star_matches_oracle(l_max):
    # every event brings a new node: digits reach 13, and a chain ends at
    # 13 events however large l_max is
    g = TemporalGraph.from_events([(0, i, i) if i % 2 else (i, 0, i)
                                   for i in range(1, 14)])
    _assert_matches_oracle(g, delta=5, l_max=l_max)
    (record,) = extract_profile(g, delta=5, l_max=l_max, keep_processes=True).processes
    assert (tuple(record.events), record.code, record.stop_reason) == (
        oracle_extract(g, delta=5, l_max=l_max)["processes"][0])
    assert record.code.l == 13 and record.stop_reason == ("size" if l_max == 13 else "end")


def _retired_at(record, events, delta: int) -> float:
    """When a process retires: at the event that fills it, at the first
    event more than ``delta`` after its last one, or at the end."""
    if record.stop_reason == "size":
        return record.events[-1].t
    if record.stop_reason == "time":
        return next(e.t for e in events if e.t - record.events[-1].t > delta)
    return math.inf


def test_stop_reasons_in_retirement_order():
    # delta 10, l_max 3: the first process fills at t=5; the second idles
    # from t=1 while nodes 6 and 7 keep talking, and nothing touches 3 or 4
    # again; the third is still open when the stream ends
    g = TemporalGraph.from_events([(1, 2, 0), (3, 4, 1), (1, 5, 2), (2, 5, 5),
                                   (6, 7, 8), (6, 7, 15)])
    profile = extract_profile(g, delta=10, l_max=3, keep_processes=True)
    assert [(r.events[0].t, r.events[-1].t, r.code.render(), r.stop_reason)
            for r in profile.processes] == [
        (0, 5, "010212", "size"), (1, 1, "01", "time"), (8, 15, "0101", "end")]
    # a tie: both processes retire at the event at t=13, the one last
    # extended at t=2 as well as the one idle since t=1; start order holds
    g = TemporalGraph.from_events([(1, 2, 0), (3, 4, 1), (1, 5, 2), (6, 7, 13)])
    profile = extract_profile(g, delta=10, l_max=3, keep_processes=True)
    assert [(r.events[0].t, r.events[-1].t, r.code.render(), r.stop_reason)
            for r in profile.processes] == [
        (0, 2, "0102", "time"), (1, 1, "01", "time"), (13, 13, "01", "end")]


def test_process_records_match_oracle():
    rng = random.Random(31)
    for trial in range(80):
        if trial % 2:
            g = random_stream(rng, n_events=rng.randint(1, 40),
                              n_nodes=rng.randint(2, 8), t_max=60)
        else:
            g = disjoint_groups_stream(rng, n_events=rng.randint(1, 40),
                                       n_groups=rng.randint(2, 12),
                                       group_size=rng.randint(2, 3), t_max=60)
        delta, l_max = rng.randint(1, 30), rng.randint(2, 5)
        profile = extract_profile(g, delta=delta, l_max=l_max,
                                  keep_processes=True)
        records = profile.processes
        assert Counter((tuple(r.events), r.code, r.stop_reason)
                       for r in records) == Counter(
            oracle_extract(g, delta=delta, l_max=l_max)["processes"])
        retired = [_retired_at(r, g.events, delta) for r in records]
        assert retired == sorted(retired)


def test_profile_round_trip(tmp_path):
    rng = random.Random(77)
    g = random_stream(rng, n_events=200, n_nodes=8, t_max=400)
    profile = extract_profile(g, delta=50, l_max=4)
    path = tmp_path / "profile.json"
    save_profile(profile, path)
    loaded = load_profile(path)
    assert loaded == profile


def test_profile_version_check(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(ValueError):
        load_profile(path)


def test_saved_bytes_do_not_depend_on_insertion_order(tmp_path):
    rng = random.Random(78)
    profile = extract_profile(random_stream(rng, n_events=200, n_nodes=8,
                                            t_max=400), delta=50, l_max=4)
    rebuilt = TransitionProfile(
        l_max=profile.l_max, delta=profile.delta, k_ce=profile.k_ce,
        t_ce=profile.t_ce, ce_edge_weights=profile.ce_edge_weights,
        counts=dict(reversed(profile.counts.items())),
        delta_t_sums=dict(reversed(profile.delta_t_sums.items())),
        input_event_count=profile.input_event_count,
        input_edge_count=profile.input_edge_count)
    assert list(rebuilt.counts) != list(profile.counts)
    save_profile(profile, tmp_path / "a.json")
    save_profile(rebuilt, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    rows = profile_to_dict(profile)["counts"]
    assert list(rows) == sorted(rows, key=lambda c: code(c).pairs)
    for row in rows.values():
        assert list(row)[-1] == "stop" or "stop" not in row


def test_pickled_and_copied_profiles_are_equal():
    profile = extract_profile(TOY_STREAM, delta=5, l_max=3)
    assert pickle.loads(pickle.dumps(profile)) == profile
    assert copy.deepcopy(profile) == profile
    assert pickle.loads(pickle.dumps(STOP)) is STOP
    assert copy.deepcopy(STOP) is STOP


# sha256 of json.dumps(profile_to_dict(p), sort_keys=True)
PINNED_PROFILE_DIGESTS = {
    ("desk", 3600, 4):
        "f2db1776f4ac7bd7906e15ab24e9d575bcaa3ef7bf47cd6ce28acade806c2254",
    ("desk", 60, 3):
        "291f5dc72850cf7f45bed0d753abca3e43994a1973a555637a48cb8a25e2ab9d",
    ("dense", 3600, 4):
        "d9d104e73032ab062ba6cd5eb85884e43d674697740a1bc7cbbbdcc18a8c57df",
    ("dense", 60, 3):
        "91667f048b130e74ea9a32ef31760ea928dc855ec3ab68800eb8293e4b65dfea",
}


@pytest.mark.parametrize("stream", ["desk", "dense"])
def test_profile_digests_are_pinned(stream):
    """Profiles of a 5,000-event desk stream and a 3,000-event dense one."""
    g = (desk_scale_stream(n_events=5000) if stream == "desk"
         else desk_scale_stream(n_events=3000, mean_iet=10))
    for delta, l_max in ((3600, 4), (60, 3)):
        doc = profile_to_dict(extract_profile(g, delta=delta, l_max=l_max))
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == PINNED_PROFILE_DIGESTS[stream, delta, l_max], \
            f"delta={delta} l_max={l_max}"


def test_saved_profile_stores_each_number_once(tmp_path):
    profile = extract_profile(TOY_STREAM, delta=5, l_max=3)
    path = tmp_path / "profile.json"
    save_profile(profile, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    assert not {"probs", "rates", "mu", "cold_event_count"} & set(doc)


def test_saved_profile_has_a_line_per_key_and_indented_files_load(tmp_path):
    profile = extract_profile(TOY_STREAM, delta=5, l_max=3)
    path = tmp_path / "profile.json"
    save_profile(profile, path)
    doc = profile_to_dict(profile)
    lines = path.read_text(encoding="ascii").splitlines()
    assert (lines[0], lines[-1], len(lines)) == ("{", "}", len(doc) + 2)
    assert json.loads(path.read_text()) == doc
    indented = tmp_path / "indented.json"  # the layout written before
    indented.write_text(json.dumps(doc, indent=1) + "\n")
    assert load_profile(indented) == profile


def _shifted(g: TemporalGraph, offset: int) -> TemporalGraph:
    return TemporalGraph.from_events([(e.src + offset, e.dst + offset, e.t)
                                      for e in g.events])


EDGE_CASE_STREAMS = {
    "one_event": lambda: TemporalGraph.from_events([(3, 4, 100)]),
    "equal_timestamps": lambda: random_stream(
        random.Random(12), n_events=40, n_nodes=6, t_max=1),
    "huge_node_ids": lambda: _shifted(
        random_stream(random.Random(13), n_events=80, n_nodes=8, t_max=400),
        2**62),
    "dense": lambda: desk_scale_stream(n_events=1500, n_nodes=300,
                                       mean_iet=10.0),
    # one 10-event process of 11 nodes, whose codes the profile writes dotted
    "star_l_max_10": lambda: TemporalGraph.from_events(
        [(0, d, d) for d in range(1, 11)]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASE_STREAMS))
def test_edge_case_profiles_round_trip(tmp_path, name):
    l_max = 10 if name == "star_l_max_10" else 4
    profile = extract_profile(EDGE_CASE_STREAMS[name](), delta=3600, l_max=l_max)
    path = tmp_path / "profile.json"
    save_profile(profile, path)
    loaded = load_profile(path)
    assert loaded == profile
    assert loaded.probs == profile.probs
    assert loaded.rates == profile.rates
    assert loaded.mu == profile.mu
    for seed in (1, 2):
        config = GenerationConfig(seed=seed)
        assert (write_events(generate(loaded, config))
                == write_events(generate(profile, config)))


_DELETE = object()


@pytest.mark.parametrize("path, value, message", [
    (["k_ce", 0, 1], 2, "unbalanced stub totals"),
    (["ce_edge_weights"], [2], "one weight per cold static edge"),
    (["ce_edge_weights"], [2, 0], "cold edge weights: expected integers >= 1"),
    (["ce_edge_weights"], [1, 2], "cold edge weights sum to 3"),
    (["counts", "01", "0102"], 0, "transition counts: expected integers >= 1"),
    (["counts", "0102"], {"011202": 1}, "does not extend"),
    (["l_max"], 2, "within l_max 2"),
    (["delta_t", "01", "0112"], [3, 2], "gap count of 01 -> 0112"),
    (["delta_t", "0102", "010203"], [1, 1], "gap sums listed"),
    (["counts", "010202", "stop"], 2, "stop counts total 3"),
    (["version"], 3, "unsupported profile version 3"),
    (["t_ce"], _DELETE, "missing key 't_ce'"),
    (["counts"], [], "malformed profile"),
    (["t_ce"], ["1", 7], "cold timestamps: expected integers"),
    (["delta_t", "01", "0102"], [1, 1.0], "gap sums and counts: expected integers"),
    (["delta_t", "01", "0102"], [1, True], "gap sums and counts: expected integers"),
    (["k_ce", 0], [0, 1, 0], "k_ce entries must be"),
    (["counts", "01020304"], {"stop": 1}, "longer than l_max 3"),
], ids=["stub_balance", "weight_per_edge", "weights_positive", "weights_sum",
        "counts_positive", "dst_extends_src", "dst_within_l_max",
        "gap_count", "gap_without_count", "stop_total", "version",
        "missing_key", "wrong_type", "timestamp_type", "gap_count_float",
        "gap_count_bool", "degree_pair", "stop_beyond_l_max"])
def test_broken_profile_rejected(path, value, message):
    doc = profile_to_dict(extract_profile(TOY_STREAM, delta=5, l_max=3))
    profile_from_dict(doc)  # the unbroken document loads
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(ValueError, match=message):
        profile_from_dict(doc)
