import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from motifgen import (
    TemporalGraph,
    compare_report,
    global_stats,
    ks_statistic,
    msre,
    parse_events,
    write_events,
)
from motifgen.stats import GLOBAL_METRICS, KS_DISTRIBUTIONS

from helpers import random_stream


def test_global_stats_bounce():
    s = global_stats(TemporalGraph.from_events([(1, 2, 0), (2, 1, 5)]))
    assert s.edge_count == 2
    assert s.event_count == 2
    assert s.timespan_seconds == 5
    assert s.mean_iet == 5.0
    assert s.max_events_on_edge == 1
    assert s.n_components == 1
    assert s.lcc_size == 2
    assert s.mean_degree == pytest.approx(2.0)


def test_global_stats_two_dyads():
    s = global_stats(TemporalGraph.from_events(
        [(1, 2, 0), (2, 1, 3), (5, 6, 7)]))
    assert s.n_components == 2
    assert s.lcc_size == 2


def test_global_stats_empty_graph_errors():
    with pytest.raises(ValueError):
        global_stats(TemporalGraph.from_events([]))


def test_global_stats_survive_round_trip():
    rng = random.Random(8)
    g = random_stream(rng, n_events=80, n_nodes=10, t_max=300)
    assert global_stats(parse_events(write_events(g))) == global_stats(g)


def test_ks_trivial_cases():
    assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_statistic([0, 0, 0], [1, 1, 1]) == 1.0
    # ECDFs of {1,2,3,4} and {3,4,5,6} differ most at x in [2,3): 1/2 vs 0
    assert ks_statistic([1, 2, 3, 4], [3, 4, 5, 6]) == pytest.approx(0.5)


def test_ks_empty_sample_errors():
    with pytest.raises(ValueError):
        ks_statistic([], [1])
    with pytest.raises(ValueError):
        ks_statistic([1], [])


# only the statistic is read; scipy's asymptotic p-value divides by zero on some samples
@pytest.mark.filterwarnings("ignore:divide by zero encountered in divide:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=40),
       st.lists(st.integers(-50, 50), min_size=1, max_size=40))
def test_ks_matches_scipy_and_is_symmetric(a, b):
    d = ks_statistic(a, b)
    assert d == pytest.approx(sps.ks_2samp(a, b, method="asymp").statistic)
    assert d == pytest.approx(ks_statistic(b, a))
    assert 0.0 <= d <= 1.0
    assert ks_statistic(a, a) == 0.0


def test_msre_examples():
    assert msre([100, 100], 100) == 0.0
    assert msre([200], 100) == pytest.approx(0.25)
    assert msre([50, 200], 100) == pytest.approx(0.625)


def test_msre_order_invariant_and_errors():
    assert msre([50, 200], 100) == msre([200, 50], 100)
    with pytest.raises(ValueError):
        msre([], 5)
    with pytest.raises(ValueError):
        msre([3, 0], 5)


def _burst_graph() -> TemporalGraph:
    rng = random.Random(12)
    events = []
    t = 0
    for _ in range(30):
        t += rng.randint(1, 5)
        u, v = rng.sample(range(6), 2)
        events.append((u, v, t))
        events.append((v, u, t + 1))
    return TemporalGraph.from_events(events)


def test_compare_report_self_comparison_is_exact():
    g = _burst_graph()
    report = compare_report(g, [g, g], delta_c=10, l_set=(2, 3),
                            window_count=5)
    for metric in GLOBAL_METRICS:
        assert report["global_stats"]["ratios"][metric] == pytest.approx(1.0)
    for name in KS_DISTRIBUTIONS:
        assert report["ks"][name] == 0.0
    for entry in report["msre"].values():
        assert entry["total"] == 0.0
        for value in entry["per_code"].values():
            assert value == 0.0
        assert entry["original_total"] > 0
    for entry in report["window_trends"].values():
        assert entry["original"] == entry["synthetic_mean"]


def test_compare_report_field_sets():
    g = _burst_graph()
    report = compare_report(g, [g], delta_c=10, l_set=(2,), window_count=3)
    assert set(report["global_stats"]["ratios"]) == set(GLOBAL_METRICS)
    assert set(report["ks"]) == {"in_degree", "out_degree", "iet", "timestamp"}
    assert report["replicas"] == 1


def test_compare_report_counts_a_repeated_size_once():
    g = _burst_graph()
    once = compare_report(g, [g], delta_c=10, l_set=(3, 2), window_count=3)
    assert compare_report(g, [g], delta_c=10, l_set=(3, 2, 3, 2),
                          window_count=3) == once
    assert once["params"]["l_set"] == [3, 2]


def test_window_totals_zero_outside_burst():
    # all chainable events in the first tenth of the span
    events = [(1, 2, t) for t in range(0, 10)] + [(8, 9, 100)]
    g = TemporalGraph.from_events(events)
    report = compare_report(g, [g], delta_c=5, l_set=(2,), window_count=10)
    windows = report["window_trends"]["2"]["original"]
    assert len(windows) == 10
    assert windows[0] > 0
    assert all(w == 0 for w in windows[1:])


def test_compare_report_requires_synthetics():
    with pytest.raises(ValueError):
        compare_report(_burst_graph(), [], delta_c=10)


@pytest.mark.parametrize("bad, match", [
    ({"l_set": ()}, "motif size"),
    ({"l_set": (2, 5)}, "l must be in"),
    ({"l_set": (1,)}, "l must be in"),
    ({"delta_c": 0}, "delta_c"),
    ({"delta_c": -3}, "delta_c"),
    ({"window_count": 0}, "window_count"),
    ({"window_count": -2}, "window_count"),
])
def test_compare_report_rejects_bad_arguments_first(bad, match):
    # the empty original would fail global statistics; arguments fail first
    kwargs = {"delta_c": 10, "l_set": (2, 3), "window_count": 5, **bad}
    with pytest.raises(ValueError, match=match):
        compare_report(TemporalGraph.from_events([]), [_burst_graph()], **kwargs)


def test_msre_undefined_reported_as_none():
    orig = _burst_graph()
    # a synthetic with no 3-event motifs at all: far-apart events
    sparse = TemporalGraph.from_events([(1, 2, 0), (2, 3, 1000)])
    report = compare_report(orig, [sparse], delta_c=10, l_set=(3,),
                            window_count=2)
    assert report["msre"]["3"]["total"] is None


def test_ks_averages_only_the_replicas_with_both_samples():
    orig = _burst_graph()
    multi = TemporalGraph.from_events([(1, 2, 0), (2, 3, 4), (3, 1, 30)])
    one = TemporalGraph.from_events([(1, 2, 5)])  # no inter-event gap

    def ks(original, synthetics):
        return compare_report(original, synthetics, delta_c=10, l_set=(2,),
                              window_count=2)["ks"]

    mixed, alone, only_one = ks(orig, [multi, one]), ks(orig, [multi]), ks(orig, [one])
    assert mixed["iet"] == alone["iet"] > 0.0
    assert only_one["iet"] is None and ks(one, [multi])["iet"] is None
    for name in KS_DISTRIBUTIONS:
        if name != "iet":  # never empty, so both replicas count
            assert mixed[name] == pytest.approx((alone[name] + only_one[name]) / 2)


def test_collegemsg_global_stats_when_available():
    from pathlib import Path
    from motifgen import load_events
    path = Path(__file__).resolve().parent.parent / "data" / "CollegeMsg.txt"
    if not path.exists():
        pytest.skip(f"public dataset not present at {path}")
    s = global_stats(load_events(path))
    assert 20_000 <= s.edge_count <= 20_600          # ~20.3K static edges
    assert 190 <= s.timespan_seconds / 86_400 <= 196  # ~193 days
    assert abs(s.mean_iet - 273.1) / 273.1 <= 0.05
