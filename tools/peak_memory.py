"""Peak and current resident memory of the desk flow, stage by stage.

Runs, in one fresh process, what ``motifgen extract``, ``generate`` and
``compare`` do with their default settings on the desk-scale surrogate
stream of ``bench/inputs.py``: load the edge list, extract and save the
profile; load the profile; generate and save a replica at seeds ``seed`` and
``seed + 1``; then load the three edge lists and compare. As a pass of the
benchmark's ``desk60k-pipeline`` does, it keeps the input graph, its profile
and the replicas until the end. The input is drawn
and written first, in this process; the flow then runs in a spawned one,
which prints after each stage its peak RSS (``VmHWM``) and its current RSS
(``VmRSS``) in MiB. Both are read from ``/proc/self/status``, so this runs on
Linux only.

Usage, from the repository root::

    python tools/peak_memory.py
    python tools/peak_memory.py --events 240000 --nodes 7600 --seed 7
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

L_MAX, DELTA, DELTA_C, COMPARE_L, WINDOWS = 4, 3600, 3600, (2, 3), 10


def rss_mib() -> tuple[float, float]:
    """This process's (peak, current) resident set size in MiB."""
    fields = dict(line.split(":", 1) for line in
                  Path("/proc/self/status").read_text().splitlines())
    return tuple(int(fields[k].split()[0]) / 1024 for k in ("VmHWM", "VmRSS"))


def report(stage: str) -> None:
    peak, current = rss_mib()
    print(f"{stage:<18}{peak:>10.1f}{current:>13.1f}", flush=True)


def flow(text_path: Path, seed: int) -> None:
    """The desk flow, a row printed after each stage."""
    from motifgen import events, extraction, generation, stats

    print(f"{'stage':<18}{'peak MiB':>10}{'current MiB':>13}")
    report("imports")
    work = text_path.parent
    kept = [events.load_events(text_path)]
    kept.append(extraction.extract_profile(kept[0], delta=DELTA, l_max=L_MAX))
    extraction.save_profile(kept[-1], work / "profile.json")
    report("extract")
    profile = extraction.load_profile(work / "profile.json")
    report("profile load")
    paths = [work / f"replica-{s}.txt" for s in (seed, seed + 1)]
    for s, path in zip((seed, seed + 1), paths):
        kept.append(generation.generate(profile, generation.GenerationConfig(seed=s)))
        events.save_events(kept[-1], path)
        report(f"generate {s}")
    stats.compare_report(events.load_events(text_path),
                         [events.load_events(p) for p in paths],
                         delta_c=DELTA_C, l_set=COMPARE_L, window_count=WINDOWS)
    report("compare")


def main(argv: list[str] | None = None) -> int:
    from inputs import DEFAULT_SEED, desk_scale_edges

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--events", type=int, default=60_000)
    parser.add_argument("--nodes", type=int, default=1900)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        text_path = Path(work) / "input.txt"
        text_path.write_text(desk_scale_edges(args.seed, n_events=args.events,
                                              n_nodes=args.nodes), encoding="ascii")
        child = multiprocessing.get_context("spawn").Process(
            target=flow, args=(text_path, args.seed))
        child.start()
        child.join()
    return child.exitcode


if __name__ == "__main__":
    sys.exit(main())
