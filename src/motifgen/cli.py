"""Command-line pipeline: spectrum, extract, generate, count, stats, compare.

Stages are file-mediated (edge lists in, a JSON profile between extract and
generate, JSON/CSV reports out) so each can run and be cached on its own.
Every randomized command takes a seed, which is recorded in the output.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click

from . import __version__
from .codec import enumerate_codes, transition_type_count
from .counting import count_motifs
from .events import TemporalGraph, load_events, write_events
from .extraction import (cold_event_fraction, extract_profile, load_profile,
                         observed_transition_type_count, save_profile)
from .generation import GenerationConfig, generate
from .stats import GLOBAL_METRICS, compare_report, global_stats

DEFAULT_L_MAX = 4
DEFAULT_DELTA = 3600
DEFAULT_DELTA_C = 3600
DEFAULT_RUNS = 10
DEFAULT_SEED = 1


@click.group()
@click.version_option(version=__version__)
def main():
    """Temporal graph generation from motif-transition statistics."""


@main.command()
@click.option("--l", "l", type=int, required=True,
              help="Motif size (number of events).")
def spectrum(l: int):
    """Print every motif type code of size L, one per line."""
    try:
        codes = enumerate_codes(l)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for code in codes:
        click.echo(code.render())


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--lmax", type=int, default=DEFAULT_L_MAX, show_default=True,
              help="Transition size limit.")
@click.option("--delta", type=int, default=DEFAULT_DELTA, show_default=True,
              help="Transition time limit in seconds.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              required=True, help="Profile JSON output path.")
def extract(input_path: str, lmax: int, delta: int, out_path: str):
    """Scan an edge list and write its transition profile."""
    if lmax < 2:
        raise click.UsageError("--lmax must be at least 2")
    if delta <= 0:
        raise click.UsageError("--delta must be positive")
    g = _load(input_path)
    profile = extract_profile(g, delta=delta, l_max=lmax)
    save_profile(profile, out_path)
    if g.dropped_self_loops:
        click.echo(f"dropped self-loops: {g.dropped_self_loops}")
    click.echo(f"events: {profile.input_event_count}")
    click.echo(f"cold events: {profile.cold_event_count} "
               f"(fraction {cold_event_fraction(profile):.4f})")
    click.echo(f"observed transition types: "
               f"{observed_transition_type_count(profile)} "
               f"of {transition_type_count(lmax)} possible")
    click.echo(f"mean final-motif edges: {profile.mu:.4f}")
    click.echo(f"profile written to {out_path}")


@main.command(name="generate")
@click.option("--profile", "profile_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--runs", type=int, default=DEFAULT_RUNS, show_default=True,
              help="Number of graphs to generate (seeds seed..seed+runs-1).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              required=True, help="Output edge list (run index appended when runs > 1).")
def generate_cmd(profile_path: str, seed: int, runs: int, out_path: str):
    """Generate synthetic edge lists from a profile."""
    if runs < 1:
        raise click.UsageError("--runs must be at least 1")
    profile = load_profile(profile_path)
    for i in range(runs):
        run_seed = seed + i
        g = generate(profile, GenerationConfig(seed=run_seed))
        path = _run_path(out_path, i) if runs > 1 else Path(out_path)
        header = (f"# generated by motifgen {__version__}: "
                  f"seed={run_seed} l_max={profile.l_max} delta={profile.delta}\n")
        path.write_text(header + write_events(g), encoding="ascii")
        click.echo(f"run {i}: seed={run_seed} events={len(g.events)} -> {path}")


def _run_path(template: str, index: int) -> Path:
    p = Path(template)
    return p.with_name(f"{p.stem}-{index}{p.suffix}")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--l", "l", type=int, required=True, help="Motif size.")
@click.option("--delta-c", type=int, default=DEFAULT_DELTA_C, show_default=True,
              help="Max gap between consecutive motif events, seconds.")
@click.option("--delta-c-inclusive/--delta-c-exclusive", default=True,
              show_default=True, help="Whether a gap equal to the limit counts.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              help="Write to a file instead of stdout.")
def count(input_path: str, l: int, delta_c: int, delta_c_inclusive: bool,
          fmt: str, out_path: str | None):
    """Count temporal motif instances per type."""
    g = _load(input_path)
    try:
        counts = count_motifs(g, l, delta_c, inclusive=delta_c_inclusive)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        doc = {"l": l, "delta_c": delta_c, "inclusive": delta_c_inclusive,
               "total": counts.total, "counts": counts.by_string()}
        text = json.dumps(doc, indent=1) + "\n"
    else:
        lines = ["code,count"]
        lines += [f"{code},{c}" for code, c in counts.by_string().items()]
        text = "\n".join(lines) + "\n"
    _emit(text, out_path)


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def stats(input_path: str, fmt: str, out_path: str | None):
    """Global statistics of one edge list."""
    g = _load(input_path)
    try:
        s = global_stats(g).as_dict()
    except ValueError as exc:
        raise click.ClickException(str(exc))
    s["node_count"] = g.node_count
    if fmt == "json":
        text = json.dumps(s, indent=1) + "\n"
    else:
        lines = ["metric,value"] + [f"{k},{v}" for k, v in s.items()]
        text = "\n".join(lines) + "\n"
    _emit(text, out_path)


@main.command()
@click.argument("original", type=click.Path(exists=True, dir_okay=False))
@click.argument("synthetics", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--delta-c", type=int, default=DEFAULT_DELTA_C, show_default=True)
@click.option("--l", "l_set", type=int, multiple=True, default=(2, 3),
              show_default=True, help="Motif sizes to compare (repeatable).")
@click.option("--windows", type=int, default=10, show_default=True,
              help="Equal-duration windows for the motif trend.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              required=True, help="Report JSON path.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True,
              help="csv additionally writes per-table CSV files next to the report.")
def compare(original: str, synthetics: tuple[str, ...], delta_c: int,
            l_set: tuple[int, ...], windows: int, out_path: str, fmt: str):
    """Compare synthetic edge lists against the original."""
    orig = _load(original)
    synths = [_load(p) for p in synthetics]
    try:
        report = compare_report(orig, synths, delta_c=delta_c, l_set=l_set,
                                window_count=windows)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    Path(out_path).write_text(json.dumps(report, indent=1) + "\n",
                              encoding="ascii")
    if fmt == "csv":
        _write_csv_tables(report, Path(out_path))
    _echo_summary(report)
    click.echo(f"report written to {out_path}")


def _echo_summary(report: dict) -> None:
    click.echo(f"{'metric':<20}{'original':>14}{'synthetic':>14}{'ratio':>10}")
    gs = report["global_stats"]
    for metric in GLOBAL_METRICS:
        ratio = gs["ratios"][metric]
        click.echo(f"{metric:<20}{gs['original'][metric]:>14.2f}"
                   f"{gs['synthetic_mean'][metric]:>14.2f}"
                   f"{ratio if ratio is None else format(ratio, '.3f'):>10}")
    for name, value in report["ks"].items():
        click.echo(f"KS {name:<17}{value:>14.4f}")
    for l, entry in report["msre"].items():
        total = entry["total"]
        shown = "undefined" if total is None else f"{total:.6f}"
        click.echo(f"MSRE {l}-event motifs: {shown}")


def _write_csv_tables(report: dict, report_path: Path) -> None:
    base = report_path.with_suffix("")
    gs = report["global_stats"]
    with open(f"{base}_ratios.csv", "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "original", "synthetic_mean", "ratio"])
        for metric in GLOBAL_METRICS:
            w.writerow([metric, gs["original"][metric],
                        gs["synthetic_mean"][metric], gs["ratios"][metric]])
    with open(f"{base}_ks.csv", "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["distribution", "ks"])
        for name, value in report["ks"].items():
            w.writerow([name, value])
    with open(f"{base}_msre.csv", "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["l", "code", "msre"])
        for l, entry in report["msre"].items():
            w.writerow([l, "total", entry["total"]])
            for code, value in entry["per_code"].items():
                w.writerow([l, code, value])
    with open(f"{base}_windows.csv", "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["l", "window", "original", "synthetic_mean"])
        for l, entry in report["window_trends"].items():
            rows = zip(entry["original"], entry["synthetic_mean"])
            for i, (orig_total, synth_total) in enumerate(rows):
                w.writerow([l, i, orig_total, synth_total])


def _load(path: str) -> TemporalGraph:
    try:
        return load_events(path)
    except ValueError as exc:
        raise click.ClickException(f"{path}: {exc}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
