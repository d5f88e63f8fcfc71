import gc
import hashlib
import random

import numpy as np
import pytest

from motifgen import (Event, MotifCode, TemporalGraph, count_motifs,
                      count_spectra, enumerate_codes, extract_profile,
                      global_stats)
from motifgen.counting import CHUNK_ROWS, _decode, _extend_id, _tally_width

from helpers import oracle_count, random_stream, window_totals
from surrogate import desk_scale_stream


def code(s: str) -> MotifCode:
    return MotifCode.from_string(s)


def ceiling(delta_c: int, inclusive: bool) -> int:
    """The ceiling that counts what the oracle counts at ``delta_c`` in the
    given mode: on integer timestamps, excluding a gap of ``delta_c`` is the
    ceiling ``delta_c - 1``."""
    return delta_c if inclusive else delta_c - 1


def test_bounce_pair():
    g = TemporalGraph.from_events([(1, 2, 1), (2, 1, 2)])
    counts = count_motifs(g, 2, 10)
    assert counts.counts == {code("0110"): 1}
    assert counts.total == 1


def test_window_exclusion():
    g = TemporalGraph.from_events([(1, 2, 1), (2, 1, 20)])
    assert count_motifs(g, 2, 10).counts == {}


def test_window_boundary_inclusive_vs_exclusive():
    g = TemporalGraph.from_events([(1, 2, 0), (2, 1, 10)])
    assert count_motifs(g, 2, 10).total == 1
    assert count_motifs(g, 2, 9).total == 0
    assert oracle_count(g, 2, 10, inclusive=False) == {}


def test_equal_timestamps_never_chain():
    g = TemporalGraph.from_events([(1, 2, 5), (2, 3, 5)])
    assert count_motifs(g, 2, 10).total == 0


def test_self_loops_are_dropped_where_a_graph_is_built():
    for events in ([(1, 1, 0), (1, 2, 1)], [(1, 2, 0), (2, 2, 1)],
                   [(1, 1, 0), (3, 4, 1)], [(1, 2, 0), (2, 2, 1), (2, 3, 2)]):
        g = TemporalGraph.from_events(events)
        loopless = [e for e in events if e[0] != e[1]]
        clean = TemporalGraph.from_events(loopless)
        assert (g.dropped_self_loops, clean.dropped_self_loops) == (1, 0)
        assert [tuple(e) for e in g.events] == loopless
        assert (count_spectra(g, (2, 3), 10, window_count=2)
                == count_spectra(clean, (2, 3), 10, window_count=2))
        assert (extract_profile(g, delta=10, l_max=3)
                == extract_profile(clean, delta=10, l_max=3))
        assert global_stats(g) == global_stats(clean)


def test_constructor_builds_what_from_events_builds():
    g = TemporalGraph(events=(Event(1, 1, 0), Event(1, 2, 1)))
    assert g.dropped_self_loops == 1
    assert count_motifs(g, 2, 10).counts == {}
    unsorted = (Event(1, 2, 5), Event(2, 3, 1))
    g = TemporalGraph(events=unsorted)
    assert g == TemporalGraph.from_events(unsorted)
    assert count_motifs(g, 2, 10).counts == {code("0120"): 1}


def test_unsupported_l_rejected():
    g = TemporalGraph.from_events([(1, 2, 0), (2, 3, 1)])
    for bad in (1, 5):
        with pytest.raises(ValueError):
            count_motifs(g, bad, 10)
    with pytest.raises(ValueError):
        count_motifs(g, 2, 0)


def test_matches_exhaustive_oracle():
    rng = random.Random(99)
    for trial in range(60):
        g = random_stream(rng, n_events=rng.randint(2, 12),
                          n_nodes=rng.randint(2, 5), t_max=25)
        delta_c = rng.randint(1, 15)
        for l in (2, 3, 4):
            got = count_motifs(g, l, delta_c)
            assert got.counts == oracle_count(g, l, delta_c), (
                f"trial {trial}, l={l}, delta_c={delta_c}")


def test_exclusive_mode_matches_oracle():
    """The oracle's exclusive ceiling 5 counts what counting at 4 counts."""
    rng = random.Random(123)
    for _ in range(20):
        g = random_stream(rng, n_events=10, n_nodes=4, t_max=12)
        for l in (2, 3):
            got = count_motifs(g, l, 4)
            assert got.counts == oracle_count(g, l, 5, inclusive=False)


def test_monotone_in_delta_c():
    rng = random.Random(17)
    g = random_stream(rng, n_events=40, n_nodes=6, t_max=60)
    for l in (2, 3):
        totals = [count_motifs(g, l, d).total for d in (1, 5, 10, 30, 60)]
        assert totals == sorted(totals)
        per_code_small = count_motifs(g, l, 5).counts
        per_code_large = count_motifs(g, l, 30).counts
        for c, n in per_code_small.items():
            assert per_code_large.get(c, 0) >= n


def test_two_event_total_equals_pair_scan():
    rng = random.Random(31)
    for _ in range(10):
        g = random_stream(rng, n_events=50, n_nodes=7, t_max=80)
        delta_c = 12
        pairs = 0
        for i, a in enumerate(g.events):
            for b in g.events[i + 1:]:
                gap = b.t - a.t
                if gap <= 0 or gap > delta_c:
                    continue
                if {a.src, a.dst} & {b.src, b.dst}:
                    pairs += 1
        assert count_motifs(g, 2, delta_c).total == pairs


def test_invariance_under_relabel_and_shift():
    rng = random.Random(55)
    g = random_stream(rng, n_events=30, n_nodes=6, t_max=50)
    relabel = {n: 100 + 3 * n for n in range(6)}
    moved = TemporalGraph.from_events(
        [(relabel[e.src], relabel[e.dst], e.t + 1000) for e in g.events])
    for l in (2, 3):
        assert count_motifs(g, l, 9).counts == count_motifs(moved, l, 9).counts


def test_overlapping_instances_are_all_counted():
    # one root event chains with two later ones independently
    g = TemporalGraph.from_events([(1, 2, 0), (2, 3, 1), (2, 4, 2)])
    counts = count_motifs(g, 2, 10)
    assert counts.total == 3  # (0,1), (0,2) and (1,2) pairings
    assert counts.counts[code("0112")] == 2


def test_by_string_is_sorted_and_complete():
    g = TemporalGraph.from_events([(1, 2, 0), (2, 1, 1), (1, 2, 2)])
    counts = count_motifs(g, 2, 10)
    rendered = counts.by_string()
    assert sum(rendered.values()) == counts.total
    assert list(rendered) == sorted(rendered)


STALE_STREAM = [
    (1, 2, 0),  # the root
    (1, 5, 1),  # 1's own event between the instance's events
    (2, 3, 3),  # the last event, on 2 and 3 only
    (1, 5, 3),  # tied with the last event: never after it
    (1, 4, 5),  # on the root's ceiling
    (1, 5, 6),  # past the root's ceiling, within the last event's
    (4, 1, 8),  # on the last event's ceiling
    (1, 3, 9),  # past it
    (3, 2, 9),
]


@pytest.mark.parametrize("inclusive", [True, False])
def test_stale_windows_of_a_node_off_the_last_event(inclusive):
    """Node 1 joins with the root and then has events of its own that no
    instance through (2, 3, 3) takes: before it, on its timestamp, on the
    root's ceiling and between the root's ceiling and the last event's.
    Its window at the root event is then stale at both bounds."""
    g = TemporalGraph.from_events(STALE_STREAM)
    for l in (2, 3, 4):
        assert count_motifs(g, l, ceiling(5, inclusive)).counts \
            == oracle_count(g, l, 5, inclusive), f"l={l}"
    spectra = count_spectra(g, (2, 3, 4), ceiling(5, inclusive), window_count=3)
    for l in (2, 3, 4):
        assert spectra[l].windows == window_totals(g, l, 5, 3, inclusive)


@pytest.mark.parametrize("inclusive, stale_needles", [(True, 48), (False, 32)])
def test_cursors_stay_fresh(monkeypatch, inclusive, stale_needles):
    """Counts stay exact with a stale cursor, which only costs searches: pin
    the bounds re-searched beyond the ``5m`` that ``after`` and the window
    tables take. A cursor that misses an update of the instance's latest
    event on a node searches more."""
    needles = []
    searchsorted = np.searchsorted

    def counted(a, v, *args, **kwargs):
        needles.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    count_motifs(TemporalGraph.from_events(STALE_STREAM), 4, ceiling(5, inclusive))
    assert sum(needles) - 5 * len(STALE_STREAM) == stale_needles


def test_code_ids_are_dense_and_decode():
    for l in (2, 3, 4):
        ids = set()
        for c in enumerate_codes(l):
            code_id = 0
            for j, (a, b) in enumerate(c.pairs[1:], 2):
                code_id = _extend_id(code_id, j, a, b)
            assert 0 <= code_id < _tally_width(l)
            assert _decode(code_id, l) == c
            ids.add(code_id)
        assert len(ids) == len(enumerate_codes(l))
    assert [_tally_width(l) for l in (2, 3, 4)] == [9, 144, 3600]


# ------------------------------------------------------- one-pass spectra

def _tie_streams(seed: int, count: int):
    """Criterion-4-style small random streams; timestamps tie often."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_stream(rng, n_events=rng.randint(2, 12),
                          n_nodes=rng.randint(2, 5), t_max=rng.choice((8, 25, 60)))
        yield g, rng.randint(1, 15), rng.randint(1, 6)


@pytest.mark.parametrize("inclusive", [True, False])
def test_spectra_match_count_motifs_and_oracle(inclusive):
    for g, delta_c, _ in _tie_streams(2024, 80):
        if not ceiling(delta_c, inclusive):  # excluding a gap of 1 admits none
            assert all(oracle_count(g, l, delta_c, inclusive) == {} for l in (2, 3, 4))
            continue
        spectra = count_spectra(g, (2, 3, 4), ceiling(delta_c, inclusive))
        assert sorted(spectra) == [2, 3, 4]
        for l in (2, 3, 4):
            single = count_motifs(g, l, ceiling(delta_c, inclusive))
            assert spectra[l].counts == single.counts \
                == oracle_count(g, l, delta_c, inclusive)
            assert spectra[l].windows == []


@pytest.mark.parametrize("inclusive", [True, False])
def test_spectra_windows_match_rebuilt_subgraphs(inclusive):
    for g, delta_c, window_count in _tie_streams(2025, 80):
        if not ceiling(delta_c, inclusive):  # excluding a gap of 1 admits none
            assert all(window_totals(g, l, delta_c, window_count, inclusive)
                       == [0] * window_count for l in (2, 3, 4))
            continue
        spectra = count_spectra(g, (2, 3, 4), ceiling(delta_c, inclusive),
                                window_count=window_count)
        for l in (2, 3, 4):
            assert spectra[l].windows == window_totals(
                g, l, delta_c, window_count, inclusive)


@pytest.mark.parametrize("events", [[], [(1, 2, 5)]])
def test_spectra_of_empty_and_one_event_graphs(events):
    g = TemporalGraph.from_events(events)
    spectra = count_spectra(g, (2, 3, 4), 10, window_count=4)
    for l in (2, 3, 4):
        assert spectra[l].counts == {}
        assert spectra[l].windows == [0, 0, 0, 0]


def test_spectra_when_all_events_share_one_timestamp():
    g = TemporalGraph.from_events([(1, 2, 7), (2, 1, 7), (2, 3, 7), (3, 1, 7)])
    spectra = count_spectra(g, (2, 3), 10, window_count=3)
    for l in (2, 3):
        assert spectra[l].counts == {}
        assert spectra[l].windows == [0, 0, 0] == window_totals(g, l, 10, 3)


def test_spectra_sizes_deduplicated_and_checked():
    g = TemporalGraph.from_events([(1, 2, 0), (2, 3, 1), (3, 1, 2)])
    assert sorted(count_spectra(g, (3, 2, 3), 10)) == [2, 3]
    for bad in ((), (2, 5), (1,)):
        with pytest.raises(ValueError):
            count_spectra(g, bad, 10)
    with pytest.raises(ValueError):
        count_spectra(g, (2,), 10, window_count=-1)


@pytest.mark.parametrize("inclusive", [True, False])
def test_spectra_exact_for_huge_ids_and_timestamps(inclusive):
    """Node ids near 2**62 and timestamps around 2**63 and beyond 2**64,
    which the parser accepts, neither wrap nor overflow the counting index."""
    rng = random.Random(63)
    for start, delta_c in ((2**63 - 12, 6), (2**64 - 5, 9), (2**63 - 1, 2**64)):
        for _ in range(10):
            small = random_stream(rng, n_events=rng.randint(2, 12),
                                  n_nodes=rng.randint(2, 5), t_max=25)
            g = TemporalGraph.from_events(
                [(2**62 + 7 * e.src, 2**62 + 7 * e.dst, start + e.t)
                 for e in small.events])
            spectra = count_spectra(g, (2, 3, 4), ceiling(delta_c, inclusive),
                                    window_count=3)
            for l in (2, 3, 4):
                assert spectra[l].counts == oracle_count(g, l, delta_c, inclusive)
                assert spectra[l].windows == window_totals(
                    g, l, delta_c, 3, inclusive)


def test_spectra_leave_no_reference_cycles():
    rng = random.Random(77)
    g = random_stream(rng, n_events=40, n_nodes=6, t_max=60)
    gc.collect()
    gc.disable()
    try:
        count_spectra(g, (2, 3, 4), 12, window_count=3)
        assert gc.collect() == 0  # the index is freed on return
    finally:
        gc.enable()


# ------------------------------------------------------------ pinned counts

def _spectra_digests(g, delta_c):
    """sha256 of each size's per-type counts and window totals."""
    spectra = count_spectra(g, (2, 3, 4), delta_c, window_count=10)
    return {l: hashlib.sha256(repr((
        sorted((c.render(), n) for c, n in s.counts.items()), s.windows,
    )).encode()).hexdigest() for l, s in spectra.items()}


# keyed by whether the ceiling 3600 admits a gap of 3600; the exclusive one is
# counted at 3599. No desk gap equals 3600, so desk's two entries agree.
PINNED_DIGESTS = {
    ("desk", True): {
        2: "4d57b712ceed241fe58724dbf89e71dad14919750113104d912c6dca2a92020f",
        3: "bfdf0ea3b836d8c07569db14042fe3ff1e4adea426fd704b4b83a181c52ae548",
        4: "5585816801d0875123b89936f8f8421fa830a144ba1f728f76c360ed8069f3cb"},
    ("desk", False): {
        2: "4d57b712ceed241fe58724dbf89e71dad14919750113104d912c6dca2a92020f",
        3: "bfdf0ea3b836d8c07569db14042fe3ff1e4adea426fd704b4b83a181c52ae548",
        4: "5585816801d0875123b89936f8f8421fa830a144ba1f728f76c360ed8069f3cb"},
    ("dense", True): {
        2: "526fb4823de81a08371c0f6ba29fce5af111aec97398375a3c165c0c84cf595d",
        3: "7dcdabb8a753467765cddce1de1ad994ba60c1893817f0533ff47ab557a9a33d",
        4: "32d0eaf1dc7dd6138a400730fe6f226731384dd85539d5b7a02a090d39570c77"},
    ("dense", False): {
        2: "2971d7a03cf564974f485479c8f18d2100a4850b59ca2288fcfdcfb4e69fea8d",
        3: "782d2a53aa827394582ec044eaa092a9be5984d5fa8e402ae417e4cf267cdb8f",
        4: "013a52a7d569f5225b04e3b44f155ccd112ae7eadc538fe3fdc6e6040067e183"},
}


@pytest.mark.parametrize("stream", ["desk", "dense"])
def test_spectra_digests_are_pinned(stream):
    """Counts and windows of two surrogate streams, at both ceilings, pinned.

    The desk-like stream has 5,000 events and the dense one (``mean_iet=10``)
    3,000, so the root events fill several chunks of the counting engine and
    the deeper levels grown from one chunk of rows hold more than one chunk.
    """
    g = (desk_scale_stream(n_events=5000) if stream == "desk"
         else desk_scale_stream(n_events=3000, mean_iet=10))
    assert len(g) > 2 * CHUNK_ROWS
    for inclusive in (True, False):
        assert _spectra_digests(g, ceiling(3600, inclusive)) \
            == PINNED_DIGESTS[stream, inclusive], f"inclusive={inclusive}"
