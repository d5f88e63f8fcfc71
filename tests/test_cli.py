import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import motifgen
from motifgen import write_events
from motifgen.cli import main

from helpers import random_stream

TOY = "11 12 1\n12 10 4\n11 10 5\n10 12 7\n10 11 8\n10 11 9\n"


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def write_toy(tmp_path, name="toy.txt", content=TOY):
    path = tmp_path / name
    path.write_text(content)
    return path


def test_spectrum_lists_codes():
    result = run("spectrum", "--l", 2)
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert sorted(lines) == sorted(["0101", "0110", "0102", "0120", "0112", "0121"])
    assert len(run("spectrum", "--l", 3).output.strip().splitlines()) == 60


def test_spectrum_rejects_bad_l():
    assert run("spectrum", "--l", 0).exit_code != 0


def test_extract_writes_profile_and_summary(tmp_path):
    toy = write_toy(tmp_path)
    out = tmp_path / "profile.json"
    result = run("extract", toy, "--lmax", 3, "--delta", 5, "--out", out)
    assert result.exit_code == 0, result.output
    assert "cold events: 2" in result.output
    doc = json.loads(out.read_text())
    assert doc["l_max"] == 3
    assert len(doc["t_ce"]) == 2


def test_extract_rejects_lmax_one(tmp_path):
    toy = write_toy(tmp_path)
    result = run("extract", toy, "--lmax", 1, "--delta", 5,
                 "--out", tmp_path / "p.json")
    assert result.exit_code != 0


def test_extract_rejects_delta_zero(tmp_path):
    toy = write_toy(tmp_path)
    out = tmp_path / "p.json"
    result = run("extract", toy, "--delta", 0, "--out", out)
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "--delta" in result.output
    assert not out.exists()


def test_extract_large_lmax_reports_the_possible_types(tmp_path):
    toy = write_toy(tmp_path, content="1 2 1\n2 3 2\n3 1 3\n1 3 4\n2 1 5\n")
    out = tmp_path / "p.json"
    result = run("extract", toy, "--lmax", 9, "--delta", 5, "--out", out)
    assert result.exit_code == 0, result.output
    assert "of 28474026186 possible" in result.output
    assert json.loads(out.read_text())["l_max"] == 9


@pytest.mark.parametrize("content", ["# x\n", "1 1 5\n"],
                         ids=["comments_only", "self_loops_only"])
def test_extract_rejects_an_empty_edge_list(tmp_path, content):
    path = write_toy(tmp_path, content=content)
    out = tmp_path / "p.json"
    result = run("extract", path, "--out", out)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == (f"Error: {path}: cannot extract a profile "
                             "from an empty graph\n")
    assert not out.exists()


def test_extract_reports_self_loops(tmp_path):
    toy = write_toy(tmp_path, content="1 1 0\n" + TOY)
    result = run("extract", toy, "--lmax", 3, "--delta", 5,
                 "--out", tmp_path / "p.json")
    assert result.exit_code == 0
    assert "dropped self-loops: 1" in result.output


def test_generate_is_reproducible(tmp_path):
    toy = write_toy(tmp_path)
    profile = tmp_path / "p.json"
    run("extract", toy, "--lmax", 3, "--delta", 5, "--out", profile)
    digests = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        result = run("generate", "--profile", profile, "--seed", 11,
                     "--runs", 1, "--out", out)
        assert result.exit_code == 0, result.output
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_generate_rejects_negative_seed(tmp_path):
    toy = write_toy(tmp_path)
    profile = tmp_path / "p.json"
    run("extract", toy, "--lmax", 3, "--delta", 5, "--out", profile)
    result = run("generate", "--profile", profile, "--seed", -1,
                 "--out", tmp_path / "g.txt")
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "--seed" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "g.txt").exists()


def test_generate_rejects_zero_runs(tmp_path):
    toy = write_toy(tmp_path)
    profile = tmp_path / "p.json"
    run("extract", toy, "--lmax", 3, "--delta", 5, "--out", profile)
    result = run("generate", "--profile", profile, "--runs", 0,
                 "--out", tmp_path / "g.txt")
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "--runs" in result.output
    assert not list(tmp_path.glob("g*.txt"))


def test_generate_multiple_runs(tmp_path):
    rng = random.Random(40)
    g = random_stream(rng, n_events=150, n_nodes=10, t_max=900)
    data = tmp_path / "input.txt"
    data.write_text(write_events(g))
    profile = tmp_path / "p.json"
    run("extract", data, "--lmax", 3, "--delta", 60, "--out", profile)
    result = run("generate", "--profile", profile, "--seed", 3, "--runs", 3,
                 "--out", tmp_path / "synth.txt")
    assert result.exit_code == 0, result.output
    paths = [tmp_path / f"synth-{i}.txt" for i in range(3)]
    assert all(p.exists() for p in paths)
    contents = {p.read_text() for p in paths}
    assert len(contents) == 3  # distinct seeds, distinct graphs


def test_generated_output_reparses(tmp_path):
    toy = write_toy(tmp_path)
    profile = tmp_path / "p.json"
    run("extract", toy, "--lmax", 3, "--delta", 5, "--out", profile)
    out = tmp_path / "synth.txt"
    run("generate", "--profile", profile, "--seed", 1, "--runs", 1, "--out", out)
    result = run("stats", out)
    assert result.exit_code == 0
    assert json.loads(result.output)["event_count"] >= 2


def test_generate_runs_default_matches_evaluation_protocol(tmp_path):
    toy = write_toy(tmp_path)
    profile = tmp_path / "p.json"
    run("extract", toy, "--lmax", 3, "--delta", 5, "--out", profile)
    result = run("generate", "--profile", profile, "--seed", 1,
                 "--out", tmp_path / "synth.txt")
    assert result.exit_code == 0, result.output
    assert all((tmp_path / f"synth-{i}.txt").exists() for i in range(10))


def _unbalanced_profile(text: str) -> str:
    doc = json.loads(text)
    doc["k_ce"][0][1] += 1  # one out-stub without an in-stub
    return json.dumps(doc)


def _self_loop_profile(text: str) -> str:
    # valid, but the one cold node's in- and out-stub can only form a loop
    doc = json.loads(text)
    doc.update(k_ce=[[1, 1]], t_ce=[0], ce_edge_weights=[1],
               counts={"01": {"stop": 1}}, delta_t={})
    return json.dumps(doc)


@pytest.mark.parametrize("corrupt, message", [
    (lambda text: text[: len(text) // 2], "column"),
    (lambda text: json.dumps({"version": 1, "l_max": 3}), "missing key"),
    (_unbalanced_profile, "unbalanced stub totals"),
    (_self_loop_profile, "stub matching produced no edges"),
], ids=["truncated_json", "missing_key", "unbalanced_stubs", "self_loop_only"])
def test_generate_rejects_broken_profile(tmp_path, corrupt, message):
    toy = write_toy(tmp_path)
    profile = tmp_path / "p.json"
    run("extract", toy, "--lmax", 3, "--delta", 5, "--out", profile)
    profile.write_text(corrupt(profile.read_text()))
    result = run("generate", "--profile", profile, "--runs", 1,
                 "--out", tmp_path / "synth.txt")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")
    assert message in lines[0]
    assert not (tmp_path / "synth.txt").exists()


def test_count_json_and_csv(tmp_path):
    toy = write_toy(tmp_path, content="1 2 1\n2 1 2\n")
    result = run("count", toy, "--l", 2, "--delta-c", 10)
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["counts"] == {"0110": 1}
    assert doc["total"] == 1
    result = run("count", toy, "--l", 2, "--delta-c", 10, "--format", "csv")
    assert result.output.splitlines() == ["code,count", "0110,1"]


def test_count_rejects_unsupported_l(tmp_path):
    toy = write_toy(tmp_path)
    assert run("count", toy, "--l", 9, "--delta-c", 10).exit_code != 0


def test_stats_outputs_all_metrics(tmp_path):
    toy = write_toy(tmp_path)
    result = run("stats", toy)
    doc = json.loads(result.output)
    for key in ("edge_count", "mean_degree", "n_components", "lcc_size",
                "event_count", "timespan_seconds", "mean_iet",
                "max_events_on_edge", "node_count"):
        assert key in doc
    assert doc["event_count"] == 6
    result = run("stats", toy, "--format", "csv")
    assert result.output.splitlines() == [
        "metric,value", "edge_count,5", "mean_degree,3.3333333333333335",
        "n_components,1", "lcc_size,3", "event_count,6", "timespan_seconds,8",
        "mean_iet,1.6", "max_events_on_edge,2", "node_count,3"]


@pytest.mark.parametrize("args", [
    ("count", "--l", 2, "--delta-c", 10),
    ("count", "--l", 2, "--delta-c", 10, "--format", "csv"),
    ("stats",),
    ("stats", "--format", "csv"),
], ids=["count_json", "count_csv", "stats_json", "stats_csv"])
def test_out_writes_what_stdout_shows(tmp_path, args):
    toy = write_toy(tmp_path)
    shown = run(args[0], toy, *args[1:])
    out = tmp_path / "out.txt"
    written = run(args[0], toy, *args[1:], "--out", out)
    assert shown.exit_code == written.exit_code == 0
    assert written.output == ""
    assert out.read_bytes() == shown.output.encode("ascii")


def test_compare_self_is_zero_error(tmp_path):
    toy = write_toy(tmp_path)
    report_path = tmp_path / "report.json"
    result = run("compare", toy, toy, "--delta-c", 10, "--l", 2,
                 "--windows", 3, "--out", report_path)
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert all(r == 1.0 for r in report["global_stats"]["ratios"].values())
    assert all(v == 0.0 for v in report["ks"].values())
    assert report["msre"]["2"]["total"] == 0.0


def test_compare_prints_undefined_ratios(tmp_path):
    one = write_toy(tmp_path, content="1 2 5\n")  # a zero timespan and IET
    report_path = tmp_path / "report.json"
    result = run("compare", one, one, "--out", report_path)
    assert result.exit_code == 0, result.output
    ratios = json.loads(report_path.read_text())["global_stats"]["ratios"]
    assert ratios["timespan_seconds"] is None and ratios["mean_iet"] is None
    assert json.loads(report_path.read_text())["ks"]["iet"] is None  # no gaps
    lines = result.output.splitlines()
    for metric in ("timespan_seconds", "mean_iet", "KS iet"):
        row = next(line for line in lines if line.startswith(metric))
        assert row.endswith(" undefined")
    assert lines[-1] == f"report written to {report_path}"


def test_compare_csv_tables(tmp_path):
    toy = write_toy(tmp_path)
    report_path = tmp_path / "report.json"
    result = run("compare", toy, toy, "--delta-c", 10, "--l", 2, "--windows", 2,
                 "--out", report_path, "--format", "csv")
    assert result.exit_code == 0, result.output
    tables = {suffix: (tmp_path / f"report_{suffix}.csv").read_bytes()
              for suffix in ("ratios", "ks", "msre", "windows")}
    assert tables == {
        "ratios": b"metric,original,synthetic_mean,ratio\n"
                  b"edge_count,5,5.0,1.0\n"
                  b"mean_degree,3.3333333333333335,3.3333333333333335,1.0\n"
                  b"n_components,1,1.0,1.0\n"
                  b"lcc_size,3,3.0,1.0\n"
                  b"event_count,6,6.0,1.0\n"
                  b"timespan_seconds,8,8.0,1.0\n"
                  b"mean_iet,1.6,1.6,1.0\n"
                  b"max_events_on_edge,2,2.0,1.0\n",
        "ks": b"distribution,ks\n"
              b"in_degree,0.0\nout_degree,0.0\niet,0.0\ntimestamp,0.0\n",
        "msre": b"l,code,msre\n"
                b"2,total,0.0\n2,0101,0.0\n2,0102,0.0\n2,0110,0.0\n"
                b"2,0112,0.0\n2,0120,0.0\n2,0121,0.0\n",
        "windows": b"l,window,original,synthetic_mean\n"
                   b"2,0,1,1.0\n2,1,6,6.0\n",
    }


def test_compare_missing_synthetic_errors(tmp_path):
    toy = write_toy(tmp_path)
    result = run("compare", toy, tmp_path / "nope.txt",
                 "--out", tmp_path / "r.json")
    assert result.exit_code != 0


@pytest.mark.parametrize("option, value", [
    ("--windows", 0), ("--l", 5), ("--delta-c", 0)])
def test_compare_rejects_bad_arguments(tmp_path, option, value):
    toy = write_toy(tmp_path)
    result = run("compare", toy, toy, option, value,
                 "--out", tmp_path / "r.json")
    assert result.exit_code == 2  # usage error, not a traceback
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Error" in result.output
    assert not (tmp_path / "r.json").exists()


def test_compare_rejects_an_empty_edge_list(tmp_path):
    empty = write_toy(tmp_path, "empty.txt", content="# x\n")
    toy = write_toy(tmp_path)
    result = run("compare", empty, toy, "--out", tmp_path / "r.json")
    assert result.exit_code == 1  # a fault of the data, not of the usage
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "Usage:" not in result.output
    assert result.output.startswith("Error: ")
    assert not (tmp_path / "r.json").exists()
    result = run("stats", empty)
    assert result.exit_code == 1
    assert result.output == ("Error: global statistics are undefined for an "
                             "empty graph\n")


def test_malformed_input_nonzero_exit(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n")
    result = run("stats", bad)
    assert result.exit_code != 0
    assert "line 1" in result.output


def test_cli_starts_without_multiprocessing():
    src = str(Path(motifgen.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, motifgen.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
