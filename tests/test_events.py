import hashlib
import io
import random
from collections import Counter

import numpy as np
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
    write_events,
)
from motifgen.events import _columns, static_edges

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


BLAMED = [  # (text, the error it raises, the line at fault)
    ("1 2\n3 4 5 6\n", EdgeListParseError, 1),  # six fields, but not three a line
    ("1 2 3 4 5 6\n", EdgeListParseError, 1),
    ("# header\n\n1 2 3\n\n  # note\n4 x 6\n", EdgeListParseError, 6),
    ("# header\n1 2 3\n1 2 -3\n", EdgeListValidationError, 3),
    ("1 2 3\n0x1 2 3\n", EdgeListParseError, 2),
    ("1 2 3\n1 2 3 # note\n", EdgeListParseError, 2),
]


@pytest.mark.parametrize("text, error, lineno", BLAMED)
def test_parse_errors_name_the_line_to_blame(text, error, lineno):
    for source in (text, io.StringIO(text)):
        with pytest.raises(error) as exc:
            parse_events(source)
        assert type(exc.value) is error and exc.value.lineno == lineno


READS = [  # (text, the rows it holds)
    ("1 2 3\r\n4 5 6\r\n", [(1, 2, 3), (4, 5, 6)]),
    ("+5 1_000 3\n", [(5, 1000, 3)]),
    ("1\t2\t3\n\n 4 5  6", [(1, 2, 3), (4, 5, 6)]),
    ("\t7  8\x1f9 \n\n", [(7, 8, 9)]),  # blanks that str.split splits on
    ("1 2 3\r4 5 6", [(1, 2, 3), (4, 5, 6)]),  # a lone CR ends a line of text
    (f"1 2 {2**64}\n4 5 {2**64 + 3}\n", [(1, 2, 2**64), (4, 5, 2**64 + 3)]),
    (f"{2**63 - 1} 2 3\n", [(2**63 - 1, 2, 3)]),
]


@pytest.mark.parametrize("text, rows", READS)
def test_parse_reads_what_int_reads(text, rows):
    g = parse_events(text)
    assert [tuple(e) for e in g.events] == rows
    assert g == TemporalGraph(rows) != text


EMPTY = ["", "# a\n", "\n", "  \n", "# header\n\n", "\t\n \n"]


@pytest.mark.parametrize("text", EMPTY)
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


LINE_RULE = [  # (text, its rows, or None where line 1 is at fault)
    ("1 2 3\x0c4 5 6\n", None),  # a form feed is a blank: six fields on line 1
    ("1 2\x1d3\n", [(1, 2, 3)]),  # a group separator too
    ("# note\x0bx\n1 2 3\n", [(1, 2, 3)]),  # a vertical tab ends no comment
    ("# a\x1e4 5 6\n7 8 9\r1 2 3\r\n", [(1, 2, 3), (7, 8, 9)]),
]


@pytest.mark.parametrize("text, rows", LINE_RULE)
def test_text_handle_and_file_share_one_line_rule(tmp_path, text, rows):
    # a line ends at LF, CR or CR LF, whether text or a handle is parsed
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    parses = (lambda: parse_events(text), lambda: parse_events(io.StringIO(text)),
              lambda: load_events(path))
    for parse in parses:
        if rows is None:
            with pytest.raises(EdgeListParseError) as exc:
                parse()
            assert exc.value.lineno == 1
        else:
            assert parse() == TemporalGraph(rows)


COMMENTED = ["# head\n1 2 3\n  # a\n\t# b\n4 5 6\n#c\n\n7 8 9",
             "1 2 3\n# a\n4 5 6\n7 8 9\n  # tail, no newline"]


def test_comment_lines_between_data_lines_go_in_the_bulk_read():
    rows = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    for text in COMMENTED:
        assert _columns(text).T.tolist() == list(map(list, rows))
        for source in (text, io.StringIO(text)):
            assert parse_events(source) == TemporalGraph(rows)


def _parsed(text: str):
    """What ``parse_events`` makes of ``text``: the graph, or the error's
    type and line."""
    try:
        return parse_events(text)
    except ValueError as exc:
        return type(exc), exc.lineno


CORPUS = ([text for text, *_ in BLAMED + READS + LINE_RULE] + EMPTY + COMMENTED
          + ["1 2 3\n" * 9, write_events(desk_scale_stream(n_events=300))])


@pytest.mark.parametrize("chars", [1, 2, 5, 13, 64])
def test_parse_blocks_read_as_one_block(monkeypatch, chars):
    whole = [(_columns(text), _parsed(text)) for text in CORPUS]
    monkeypatch.setattr("motifgen.events._PARSE_CHARS", chars)
    for text, (columns, parsed) in zip(CORPUS, whole):
        blocked = _columns(text)
        assert (blocked is None if columns is None
                else np.array_equal(blocked, columns)), text
        assert _parsed(text) == parsed, text


@pytest.mark.parametrize("bad, error", [("4 x 6", EdgeListParseError),
                                         ("4 5 -6", EdgeListValidationError)])
def test_a_later_block_at_fault_names_its_own_line(monkeypatch, bad, error):
    monkeypatch.setattr("motifgen.events._PARSE_CHARS", 16)
    lines = [f"{i} {i + 1} {i}" for i in range(60)]
    lines[47] = bad
    text = "# header\n" + "\n".join(lines) + "\n"
    with pytest.raises(error) as exc:
        parse_events(text)
    assert exc.value.lineno == 49


def test_node_ids_past_2_63_rank_in_order():
    big = 2**64
    rows = [(big + 5, 3, 10), (7, big + 5, 4), (2**63, big + 5, 6),
            (3, 2**63, 8), (big + 9, 7, 2), (big + 9, big + 9, 3)]
    ids = sorted({u for u, v, _ in rows if u != v} | {v for u, v, _ in rows if u != v})
    kept = sorted((r for r in rows if r[0] != r[1]), key=lambda r: r[2])
    text = "".join(f"{u} {v} {t}\n" for u, v, t in rows)
    assert _columns(text) is None  # the line loop reads ids past the int64 range
    columns = [np.array(c, dtype=object) for c in zip(*rows)]
    for g in (TemporalGraph(rows), parse_events(text),
              TemporalGraph.from_columns(*columns)):
        assert g.nodes == ids
        assert g.src.dtype == g.dst.dtype == np.int32
        assert g.src.tolist() == [ids.index(u) for u, _, _ in kept]
        assert g.dst.tolist() == [ids.index(v) for _, v, _ in kept]
        assert parse_events(write_events(g)) == g == TemporalGraph(kept)
        assert g.dropped_self_loops == 1


@pytest.mark.parametrize("n_events", [0, 2, 3, 10])
def test_written_blocks_are_write_events_bytes(tmp_path, monkeypatch, n_events):
    g = random_stream(random.Random(n_events), n_events=n_events, n_nodes=6, t_max=90)
    text = write_events(g)
    monkeypatch.setattr("motifgen.events._WRITE_EVENTS", 3)
    save_events(g, tmp_path / "g.txt")
    assert (tmp_path / "g.txt").read_bytes() == text.encode("ascii")
    assert write_events(g) == text
    assert len(text.splitlines()) == len(g)


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


def _static_pairs(g: TemporalGraph) -> dict[tuple[int, int], int]:
    """``static_edges`` of ``g`` as node-id pairs, read through ``g.nodes``,
    mapped to their event counts, in the order ``static_edges`` returns."""
    src, dst, weight = static_edges(g.src, g.dst, g.node_count)
    return {(g.nodes[s], g.nodes[d]): w
            for s, d, w in zip(src.tolist(), dst.tolist(), weight.tolist())}


def test_static_edges_dedup_and_direction():
    assert _static_pairs(TemporalGraph.from_events(
        [(1, 2, 5), (1, 2, 9)])) == {(1, 2): 2}
    assert _static_pairs(TemporalGraph.from_events(
        [(1, 2, 5), (2, 1, 6)])) == {(1, 2): 1, (2, 1): 1}


def test_static_edges_matches_brute_force():
    rng = random.Random(7)
    g = random_stream(rng, n_events=50, n_nodes=8, t_max=100)
    pairs = _static_pairs(g)
    assert pairs == Counter((e.src, e.dst) for e in g.events)
    assert list(pairs) == sorted(pairs)


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
