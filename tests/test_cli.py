import hashlib
import json
import random

import pytest
from click.testing import CliRunner

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
    assert doc["cold_event_count"] == 2


def test_extract_rejects_lmax_one(tmp_path):
    toy = write_toy(tmp_path)
    result = run("extract", toy, "--lmax", 1, "--delta", 5,
                 "--out", tmp_path / "p.json")
    assert result.exit_code != 0


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


def test_compare_csv_tables(tmp_path):
    toy = write_toy(tmp_path)
    report_path = tmp_path / "report.json"
    result = run("compare", toy, toy, "--delta-c", 10, "--l", 2,
                 "--out", report_path, "--format", "csv")
    assert result.exit_code == 0, result.output
    for suffix in ("ratios", "ks", "msre", "windows"):
        assert (tmp_path / f"report_{suffix}.csv").exists()


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


def test_malformed_input_nonzero_exit(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n")
    result = run("stats", bad)
    assert result.exit_code != 0
    assert "line 1" in result.output
