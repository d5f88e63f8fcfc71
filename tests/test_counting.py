import gc
import random

import pytest

from motifgen import MotifCode, TemporalGraph, count_motifs, count_spectra

from helpers import oracle_count, random_stream, window_totals


def code(s: str) -> MotifCode:
    return MotifCode.from_string(s)


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
    assert count_motifs(g, 2, 10, inclusive=True).total == 1
    assert count_motifs(g, 2, 10, inclusive=False).total == 0


def test_equal_timestamps_never_chain():
    g = TemporalGraph.from_events([(1, 2, 5), (2, 3, 5)])
    assert count_motifs(g, 2, 10).total == 0


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
    rng = random.Random(123)
    for _ in range(20):
        g = random_stream(rng, n_events=10, n_nodes=4, t_max=12)
        for l in (2, 3):
            got = count_motifs(g, l, 5, inclusive=False)
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


def test_worker_split_merges_to_same_result():
    rng = random.Random(4242)
    g = random_stream(rng, n_events=60, n_nodes=8, t_max=90)
    seq = count_motifs(g, 3, 15, workers=1)
    par = count_motifs(g, 3, 15, workers=2)
    assert seq.counts == par.counts


def test_worker_count_env_override(monkeypatch):
    rng = random.Random(4243)
    g = random_stream(rng, n_events=40, n_nodes=6, t_max=60)
    baseline = count_motifs(g, 2, 12)
    monkeypatch.setenv("MOTIFGEN_WORKERS", "2")
    assert count_motifs(g, 2, 12).counts == baseline.counts


def test_by_string_is_sorted_and_complete():
    g = TemporalGraph.from_events([(1, 2, 0), (2, 1, 1), (1, 2, 2)])
    counts = count_motifs(g, 2, 10)
    rendered = counts.by_string()
    assert sum(rendered.values()) == counts.total
    assert list(rendered) == sorted(rendered)


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
        spectra = count_spectra(g, (2, 3, 4), delta_c, inclusive=inclusive)
        assert sorted(spectra) == [2, 3, 4]
        for l in (2, 3, 4):
            single = count_motifs(g, l, delta_c, inclusive=inclusive)
            assert spectra[l].counts == single.counts \
                == oracle_count(g, l, delta_c, inclusive)
            assert spectra[l].windows == []


@pytest.mark.parametrize("inclusive", [True, False])
def test_spectra_windows_match_rebuilt_subgraphs(inclusive):
    for g, delta_c, window_count in _tie_streams(2025, 80):
        spectra = count_spectra(g, (2, 3, 4), delta_c, inclusive=inclusive,
                                window_count=window_count)
        for l in (2, 3, 4):
            assert spectra[l].windows == window_totals(
                g, l, delta_c, window_count, inclusive)


def test_spectra_worker_split_matches_sequential():
    rng = random.Random(4244)
    g = random_stream(rng, n_events=60, n_nodes=8, t_max=90)
    seq = count_spectra(g, (2, 3, 4), 15, window_count=7, workers=1)
    par = count_spectra(g, (2, 3, 4), 15, window_count=7, workers=2)
    for l in (2, 3, 4):
        assert par[l].counts == seq[l].counts
        assert par[l].windows == seq[l].windows
        assert sum(seq[l].windows) > 0


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
