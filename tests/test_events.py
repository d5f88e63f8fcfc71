import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifgen import (
    EdgeListParseError,
    EdgeListValidationError,
    Event,
    GenerationConfig,
    TemporalGraph,
    compare_report,
    extract_profile,
    generate,
    load_events,
    parse_events,
    save_events,
    static_projection,
    write_events,
)

from helpers import random_stream
from surrogate import desk_scale_stream

# sha256 of write_events(desk_scale_stream(**kwargs)); the benchmark's
# inputs are the same bytes
SURROGATE_DIGESTS = {
    "desk": ({}, "7b5d427bae16d43521eba58c73b1b069eb4f5b56255b40637cbd5c71c6b166c9"),
    "dense": ({"mean_iet": 10.0},
              "90abf87620bef9b14d586af77eb5674aca1e4207c3b907e52e3a3edd6e8260b0"),
}


def test_parse_sorts_by_timestamp():
    g = parse_events("1 2 10\n2 3 5\n")
    assert [tuple(e) for e in g.events] == [(2, 3, 5), (1, 2, 10)]


def test_parse_drops_and_counts_self_loops():
    g = parse_events("1 1 5\n1 2 6\n")
    assert [tuple(e) for e in g.events] == [(1, 2, 6)]
    assert g.dropped_self_loops == 1


def test_parse_keeps_duplicates_and_comments():
    g = parse_events("# header\n1 2 5\n1 2 5\n\n")
    assert [tuple(e) for e in g.events] == [(1, 2, 5), (1, 2, 5)]


def test_parse_stable_on_timestamp_ties():
    g = parse_events("5 6 7\n1 2 7\n3 4 7\n")
    assert [tuple(e) for e in g.events] == [(5, 6, 7), (1, 2, 7), (3, 4, 7)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EdgeListParseError) as exc:
        parse_events("1 2 3\n4 5\n")
    assert exc.value.lineno == 2
    with pytest.raises(EdgeListParseError):
        parse_events("1 two 3\n")
    with pytest.raises(EdgeListValidationError) as exc:
        parse_events("1 2 3\n1 2 -4\n")
    assert exc.value.lineno == 2
    with pytest.raises(EdgeListValidationError):
        parse_events("-1 2 3\n")


@pytest.mark.parametrize("text, error, lineno", [
    ("1 2\n3 4 5 6\n", EdgeListParseError, 1),  # six fields, but not three a line
    ("1 2 3 4 5 6\n", EdgeListParseError, 1),
    ("# header\n\n1 2 3\n\n  # note\n4 x 6\n", EdgeListParseError, 6),
    ("# header\n1 2 3\n1 2 -3\n", EdgeListValidationError, 3),
    ("1 2 3\n0x1 2 3\n", EdgeListParseError, 2),
    ("1 2 3\n1 2 3 # note\n", EdgeListParseError, 2),
])
def test_parse_errors_name_the_line_to_blame(text, error, lineno):
    for source in (text, io.StringIO(text)):
        with pytest.raises(error) as exc:
            parse_events(source)
        assert type(exc.value) is error and exc.value.lineno == lineno


@pytest.mark.parametrize("text, rows", [
    ("1 2 3\r\n4 5 6\r\n", [(1, 2, 3), (4, 5, 6)]),
    ("+5 1_000 3\n", [(5, 1000, 3)]),
    ("1\t2\t3\n\n 4 5  6", [(1, 2, 3), (4, 5, 6)]),
    ("\t7  8\x1f9 \n\n", [(7, 8, 9)]),  # blanks that str.split splits on
    ("1 2 3\r4 5 6", [(1, 2, 3), (4, 5, 6)]),  # a lone CR ends a line of text
    (f"1 2 {2**64}\n4 5 {2**64 + 3}\n", [(1, 2, 2**64), (4, 5, 2**64 + 3)]),
    (f"{2**63 - 1} 2 3\n", [(2**63 - 1, 2, 3)]),
])
def test_parse_reads_what_int_reads(text, rows):
    g = parse_events(text)
    assert [tuple(e) for e in g.events] == rows
    assert g == TemporalGraph(rows) != text


@pytest.mark.parametrize("text", ["", "# a\n", "\n", "  \n", "# header\n\n", "\t\n \n"])
def test_text_without_events_parses_to_the_empty_graph(text):
    for source in (text, io.StringIO(text)):
        g = parse_events(source)
        assert len(g) == 0 and g == TemporalGraph([])


def test_text_and_handle_parse_to_equal_graphs(tmp_path):
    text = write_events(desk_scale_stream(n_events=500))
    (tmp_path / "g.txt").write_text("# header\n" + text, encoding="ascii")
    g = parse_events(text)
    assert parse_events(io.StringIO(text)) == g == load_events(tmp_path / "g.txt")
    assert write_events(g) == text


def test_span_must_stay_below_2_63_seconds():
    for rows in ([(0, 1, 0), (1, 2, 2**63)], [(0, 1, -1), (1, 2, 2**63 - 1)]):
        with pytest.raises(ValueError, match=str(2**63)):
            TemporalGraph(rows)
    with pytest.raises(ValueError, match=str(2**63)):
        parse_events(f"0 1 7\n1 2 {2**63 + 7}\n")
    g = TemporalGraph([(0, 1, 5), (1, 2, 2**63 + 4)])
    assert (g.t0, g.timespan) == (5, 2**63 - 1)


def test_no_stage_reads_the_row_view(monkeypatch):
    """Parse, extract, generate, write and compare read the columns only."""
    text = write_events(desk_scale_stream(n_events=3000))

    def unread(_g):
        raise AssertionError("a stage read TemporalGraph.events")

    monkeypatch.setattr(TemporalGraph, "events", property(unread))
    g = parse_events(text)
    profile = extract_profile(g, delta=3600, l_max=4, keep_processes=True)
    replica = parse_events(write_events(generate(profile, GenerationConfig(seed=1))))
    report = compare_report(g, [replica], delta_c=3600)
    assert report["msre"]["2"]["original_total"] > 0
    assert len(replica) > profile.cold_event_count


def test_iterating_a_graph_yields_its_row_view():
    g = random_stream(random.Random(5), n_events=50, n_nodes=6, t_max=300)
    assert list(g) == list(g.events)
    assert TemporalGraph(g) == g
    assert list(TemporalGraph([])) == []


def test_write_single_event_and_empty():
    assert write_events(TemporalGraph.from_events([(0, 1, 0)])) == "0 1 0\n"
    assert write_events(TemporalGraph.from_events([])) == ""


def test_round_trip_random_graph(tmp_path):
    rng = random.Random(42)
    g = random_stream(rng, n_events=100, n_nodes=12, t_max=500)
    assert parse_events(write_events(g)).events == g.events
    save_events(g, tmp_path / "g.txt")
    assert load_events(tmp_path / "g.txt").events == g.events


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.integers(0, 50))))
def test_round_trip_property(raw):
    events = [Event(u, v, t) for u, v, t in raw if u != v]
    g = TemporalGraph.from_events(events)
    round_tripped = parse_events(write_events(g))
    assert round_tripped.events == g.events


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(0, 10))))
def test_sort_is_stable(raw):
    events = [Event(u, v, t) for u, v, t in raw if u != v]
    g = TemporalGraph.from_events(events)
    for t in {e.t for e in g.events}:
        at_t_sorted = [e for e in g.events if e.t == t]
        at_t_input = [e for e in events if e.t == t]
        assert at_t_sorted == at_t_input


def test_static_projection_dedup_and_direction():
    assert static_projection(TemporalGraph.from_events(
        [(1, 2, 5), (1, 2, 9)])) == {(1, 2)}
    assert static_projection(TemporalGraph.from_events(
        [(1, 2, 5), (2, 1, 6)])) == {(1, 2), (2, 1)}


def test_static_projection_matches_brute_force():
    rng = random.Random(7)
    g = random_stream(rng, n_events=50, n_nodes=8, t_max=100)
    brute = set()
    for e in g.events:
        brute.add((e.src, e.dst))
    assert static_projection(g) == brute


def test_graph_properties():
    g = TemporalGraph.from_events([(1, 2, 5), (3, 4, 11)])
    assert g.node_count == 4
    assert g.timespan == 6
    assert len(g) == 2
    empty = TemporalGraph.from_events([])
    assert empty.node_count == 0
    assert empty.timespan == 0


def test_parse_collegemsg_when_available():
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "data" / "CollegeMsg.txt"
    if not path.exists():
        pytest.skip(f"public dataset not present at {path}")
    g = load_events(path)
    assert 59_000 <= len(g.events) <= 60_500  # ~59.8K events
    assert 1_850 <= g.node_count <= 1_950     # ~1.90K nodes


@pytest.mark.parametrize("stream", sorted(SURROGATE_DIGESTS))
def test_surrogate_streams_are_pinned(stream):
    kwargs, digest = SURROGATE_DIGESTS[stream]
    text = write_events(desk_scale_stream(**kwargs))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
