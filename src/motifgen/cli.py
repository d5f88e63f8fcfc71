"""Command-line pipeline: spectrum, extract, generate, count, stats, compare.

Stages are file-mediated (edge lists in, a JSON profile between extract and
generate, JSON/CSV reports out) so each can run and be cached on its own.
Every randomized command takes a seed, which is recorded in the output.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import click

from . import __version__
from .codec import MAX_SPECTRUM_EVENTS, enumerate_codes, transition_type_count
from .counting import MAX_COUNT_EVENTS, count_motifs
from .events import TemporalGraph, load_events, write_blocks
from .extraction import (cold_event_fraction, extract_profile, load_profile,
                         observed_transition_type_count, save_profile)
from .generation import GenerationConfig, generate
from .stats import GLOBAL_METRICS, compare_report, global_stats

DEFAULT_L_MAX = 4
DEFAULT_DELTA = 3600
DEFAULT_DELTA_C = 3600
DEFAULT_RUNS = 10
DEFAULT_SEED = 1
EXACT_TYPES_LMAX = 12  # beyond it, the count of possible types is a lower bound


@click.group()
@click.version_option(version=__version__)
def main():
    """Temporal graph generation from motif-transition statistics."""


@main.command()
@click.option("--l", "l", type=click.IntRange(1, MAX_SPECTRUM_EVENTS),
              required=True, help="Motif size (number of events).")
def spectrum(l: int):
    """Print every motif type code of size L, one per line."""
    for code in enumerate_codes(l):
        click.echo(code.render())


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--lmax", type=click.IntRange(min=2), default=DEFAULT_L_MAX,
              show_default=True, help="Transition size limit.")
@click.option("--delta", type=click.IntRange(min=1), default=DEFAULT_DELTA,
              show_default=True, help="Transition time limit in seconds.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              required=True, help="Profile JSON output path.")
def extract(input_path: str, lmax: int, delta: int, out_path: str):
    """Scan an edge list and write its transition profile."""
    g = _load(input_path)
    with _failing(input_path):  # e.g. no events left after parsing
        profile = extract_profile(g, delta=delta, l_max=lmax)
    with _failing(out_path):
        save_profile(profile, out_path)
    if g.dropped_self_loops:
        click.echo(f"dropped self-loops: {g.dropped_self_loops}")
    click.echo(f"events: {profile.input_event_count}")
    click.echo(f"cold events: {profile.cold_event_count} "
               f"(fraction {cold_event_fraction(profile):.4f})")
    shown = min(lmax, EXACT_TYPES_LMAX)
    click.echo(f"observed transition types: "
               f"{observed_transition_type_count(profile)} of "
               f"{'' if shown == lmax else 'more than '}"
               f"{transition_type_count(shown)} possible")
    click.echo(f"mean final-motif edges: {profile.mu:.4f}")
    click.echo(f"profile written to {out_path}")


@main.command(name="generate")
@click.option("--profile", "profile_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED,
              show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=DEFAULT_RUNS,
              show_default=True,
              help="Number of graphs to generate (seeds seed..seed+runs-1).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              required=True, help="Output edge list (run index appended when runs > 1).")
def generate_cmd(profile_path: str, seed: int, runs: int, out_path: str):
    """Generate synthetic edge lists from a profile."""
    with _failing(profile_path):
        profile = load_profile(profile_path)
    for i in range(runs):
        run_seed = seed + i
        with _failing(profile_path):  # cold degrees that admit no edge, too long a span
            g = generate(profile, GenerationConfig(seed=run_seed))
        path = _run_path(out_path, i) if runs > 1 else Path(out_path)
        header = (f"# generated by motifgen {__version__}: "
                  f"seed={run_seed} l_max={profile.l_max} delta={profile.delta}\n")
        with _failing(path), open(path, "w", encoding="ascii") as fh:
            fh.write(header)
            fh.writelines(write_blocks(g))
        click.echo(f"run {i}: seed={run_seed} events={len(g)} -> {path}")


def _run_path(template: str, index: int) -> Path:
    p = Path(template)
    return p.with_name(f"{p.stem}-{index}{p.suffix}")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--l", "l", type=click.IntRange(2, MAX_COUNT_EVENTS),
              required=True, help="Motif size.")
@click.option("--delta-c", type=click.IntRange(min=1), default=DEFAULT_DELTA_C,
              show_default=True,
              help="Max gap between consecutive motif events, seconds.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              help="Write to a file instead of stdout.")
def count(input_path: str, l: int, delta_c: int, fmt: str, out_path: str | None):
    """Count temporal motif instances per type."""
    g = _load(input_path)
    counts = count_motifs(g, l, delta_c)
    doc = {"l": l, "delta_c": delta_c, "total": counts.total, "counts": counts.by_string()}
    _emit(doc, ["code", "count"], doc["counts"].items(), fmt, out_path)


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def stats(input_path: str, fmt: str, out_path: str | None):
    """Global statistics of one edge list."""
    g = _load(input_path)
    with _failing():
        s = global_stats(g).as_dict()
    s["node_count"] = g.node_count
    _emit(s, ["metric", "value"], s.items(), fmt, out_path)


@main.command()
@click.argument("original", type=click.Path(exists=True, dir_okay=False))
@click.argument("synthetics", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--delta-c", type=click.IntRange(min=1), default=DEFAULT_DELTA_C,
              show_default=True)
@click.option("--l", "l_set", type=click.IntRange(2, MAX_COUNT_EVENTS),
              multiple=True, default=(2, 3), show_default=True,
              help="Motif sizes to compare (repeatable).")
@click.option("--windows", type=click.IntRange(min=1), default=10, show_default=True,
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
    empty = next((p for p, g in zip((original, *synthetics), (orig, *synths))
                  if not len(g)), None)  # the file an empty-graph error names
    with _failing(empty):
        report = compare_report(orig, synths, delta_c=delta_c, l_set=l_set,
                                window_count=windows)
    with _failing(out_path):
        Path(out_path).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="ascii")
        if fmt == "csv":
            _write_csv_tables(report, Path(out_path))
    _echo_summary(report)
    click.echo(f"report written to {out_path}")


def _shown(value: float | None, spec: str) -> str:
    return "undefined" if value is None else format(value, spec)


def _echo_summary(report: dict) -> None:
    click.echo(f"{'metric':<20}{'original':>14}{'synthetic':>14}{'ratio':>10}")
    gs = report["global_stats"]
    for metric in GLOBAL_METRICS:
        click.echo(f"{metric:<20}{gs['original'][metric]:>14.2f}"
                   f"{gs['synthetic_mean'][metric]:>14.2f}"
                   f"{_shown(gs['ratios'][metric], '.3f'):>10}")
    for name, value in report["ks"].items():
        click.echo(f"KS {name:<17}{_shown(value, '.4f'):>14}")
    for l, entry in report["msre"].items():
        click.echo(f"MSRE {l}-event motifs: {_shown(entry['total'], '.6f')}")


def _write_csv_tables(report: dict, report_path: Path) -> None:
    gs = report["global_stats"]
    tables = {
        "ratios": (["metric", "original", "synthetic_mean", "ratio"],
                   [(m, gs["original"][m], gs["synthetic_mean"][m], gs["ratios"][m])
                    for m in GLOBAL_METRICS]),
        "ks": (["distribution", "ks"], report["ks"].items()),
        "msre": (["l", "code", "msre"],
                 [(l, code, value) for l, entry in report["msre"].items()
                  for code, value in {"total": entry["total"],
                                      **entry["per_code"]}.items()]),
        "windows": (["l", "window", "original", "synthetic_mean"],
                    [(l, i, *pair) for l, entry in report["window_trends"].items()
                     for i, pair in enumerate(zip(entry["original"],
                                                  entry["synthetic_mean"]))]),
    }
    base = report_path.with_suffix("")
    for name, (header, rows) in tables.items():
        Path(f"{base}_{name}.csv").write_text(_csv(header, rows), encoding="ascii")


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """One CSV table, every line ending in ``\\n``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


@contextmanager
def _failing(path: str | None = None):
    """Turn bad data into one ``Error:`` line naming ``path``, and a file
    that cannot be read or written into one naming that file."""
    try:
        yield
    except OSError as exc:  # e.g. an output under a missing directory
        raise click.ClickException(f"{exc.filename or path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise click.ClickException(f"{path}: {exc}" if path else str(exc))


def _load(path: str) -> TemporalGraph:
    with _failing(path):
        return load_events(path)


def _emit(doc: dict, header: Sequence[str], rows: Iterable[Sequence],
          fmt: str, out_path: str | None) -> None:
    """Write ``doc`` as JSON, or ``rows`` under ``header`` as CSV."""
    text = json.dumps(doc, indent=1) + "\n" if fmt == "json" else _csv(header, rows)
    if out_path:
        with _failing(out_path):
            Path(out_path).write_text(text, encoding="ascii")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
