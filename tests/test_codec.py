import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifgen import (
    MotifCode,
    MotifEncodingError,
    encode,
    enumerate_codes,
    transition_type_count,
)


def code(s: str) -> MotifCode:
    return MotifCode.from_string(s)


def test_encode_examples():
    a, b, c = 10, 20, 30
    assert encode([(a, b, 1)]).render() == "01"
    assert encode([(a, b, 1), (b, a, 2)]).render() == "0110"
    assert encode([(a, b, 1), (b, c, 2), (a, c, 3)]).render() == "011202"


def test_encode_rejects_self_loop_and_disconnected():
    with pytest.raises(MotifEncodingError):
        encode([(1, 1, 0)])
    with pytest.raises(MotifEncodingError):
        encode([(1, 2, 0), (2, 2, 1)])  # a self-loop after the first event
    with pytest.raises(MotifEncodingError):
        encode([(1, 2, 0), (3, 4, 1)])
    with pytest.raises(MotifEncodingError):
        encode([])


def test_code_invariants_rejected():
    for bad in ["10", "0102" + "34", "0110" + "33", "010"]:
        with pytest.raises(MotifEncodingError):
            code(bad)
    with pytest.raises(MotifEncodingError):
        MotifCode(((0, 1), (2, 3)))  # new pair touching nothing


def test_code_rule_accepts_exactly_the_enumerated_codes():
    """Brute force: of every tuple of ``l`` pairs with digits in -1..l, the
    constructor accepts just the codes ``enumerate_codes`` lists."""
    for l in (1, 2, 3):
        pairs = list(itertools.product(range(-1, l + 1), repeat=2))
        accepted = set()
        for candidate in itertools.product(pairs, repeat=l):
            try:
                accepted.add(MotifCode(candidate))
            except MotifEncodingError:
                pass
        assert accepted == set(enumerate_codes(l)), f"l={l}"


def test_spectrum_cardinalities():
    assert len(enumerate_codes(1)) == 1
    assert len(enumerate_codes(2)) == 6
    assert len(enumerate_codes(3)) == 60
    assert len(enumerate_codes(4)) == 888


def test_two_event_spectrum_is_exactly_the_six():
    got = {c.render() for c in enumerate_codes(2)}
    assert got == {"0101", "0110", "0102", "0120", "0112", "0121"}


def test_enumerated_codes_are_distinct_and_valid():
    for l in (2, 3, 4):
        codes = enumerate_codes(l)
        assert len(set(codes)) == len(codes)
        for c in codes:
            assert c.l == l
            MotifCode(c.pairs)  # re-validates every invariant


def test_prefix_closure():
    for l in (2, 3, 4):
        smaller = set(enumerate_codes(l - 1))
        for c in enumerate_codes(l):
            assert MotifCode(c.pairs[:-1]) in smaller


def test_transition_type_counts():
    assert transition_type_count(2) == 6
    assert transition_type_count(3) == 66
    assert transition_type_count(4) == 954
    for l_max in range(2, 6):
        assert transition_type_count(l_max) == sum(
            len(enumerate_codes(l)) for l in range(2, l_max + 1))
    # beyond the enumerable sizes the count still comes back at once
    assert transition_type_count(9) == 28_474_026_186


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_codes(0)
    with pytest.raises(ValueError):
        enumerate_codes(7)
    with pytest.raises(ValueError):
        transition_type_count(1)


def test_static_edge_counts():
    assert code("0101").static_edge_count() == 1
    assert code("0110").static_edge_count() == 2
    assert code("011202").static_edge_count() == len({(0, 1), (1, 2), (0, 2)})


def test_render_parse_round_trip():
    for l in (2, 3, 4):
        for c in enumerate_codes(l):
            assert MotifCode.from_string(c.render()) == c
    star = MotifCode(tuple((0, d) for d in range(1, 11)))  # 11 nodes: dotted
    assert star.render() == "0.1-0.2-0.3-0.4-0.5-0.6-0.7-0.8-0.9-0.10"
    assert MotifCode.from_string(star.render()) == star
    assert repr(star) == f"MotifCode({star.render()})"


def _random_chain(rng: random.Random, length: int) -> list[tuple[int, int, int]]:
    """A random prefix-connected event chain over small node ids."""
    events = [(0, 1, 0)]
    nodes = [0, 1]
    for k in range(1, length):
        new_node = rng.random() < 0.4
        if new_node:
            fresh = max(nodes) + 1
            anchor = rng.choice(nodes)
            pair = (anchor, fresh) if rng.random() < 0.5 else (fresh, anchor)
            nodes.append(fresh)
        else:
            u, v = rng.sample(nodes, 2)
            pair = (u, v)
        events.append((pair[0], pair[1], k))
    return events


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_encode_is_isomorphism_invariant(seed, length):
    rng = random.Random(seed)
    events = _random_chain(rng, length)
    base = encode(events)
    # relabel nodes and shift all timestamps uniformly
    node_ids = sorted({n for u, v, _t in events for n in (u, v)})
    relabel = {n: 1000 + 7 * i for i, n in enumerate(node_ids)}
    shifted = [(relabel[u], relabel[v], t + 55) for u, v, t in events]
    assert encode(shifted) == base


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_encode_prefixes_chain(seed, length):
    rng = random.Random(seed)
    events = _random_chain(rng, length)
    for k in range(1, len(events)):
        assert encode(events[: k + 1]).pairs[:k] == encode(events[:k]).pairs
