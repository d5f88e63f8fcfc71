"""Peak and current resident memory of the benchmark's desk pass, stage by stage.

Writes the desk-scale surrogate stream of ``bench/inputs.py``, then runs the
benchmark's own ``desk_pipeline`` on it, untraced as a timed pass runs, in a
spawned process. That process prints its peak (``VmHWM``) and current
(``VmRSS``) RSS in MiB after its imports and as each ``stage.*`` span closes,
read from ``/proc/self/status``, so this runs on Linux only. Usage::

    python tools/peak_memory.py --events 240000 --nodes 7600 --seed 7
"""

import argparse
import multiprocessing
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def print_rss(label: str) -> None:
    fields = dict(line.split(":", 1) for line in
                  Path("/proc/self/status").read_text().splitlines())
    peak, current = (int(fields[k].split()[0]) / 1024 for k in ("VmHWM", "VmRSS"))
    print(f"{label:<18}{peak:>10.1f}{current:>13.1f}", flush=True)


def probe(text_path: Path, seed: int) -> None:
    """Run the desk pass, printing a row as each stage ends."""
    import workloads
    from spans import Recorder

    seeds = iter(workloads.gen_seeds(seed))

    class StageRows(Recorder):
        @contextmanager
        def span(self, name: str):
            with super().span(name) as rec:
                yield rec
            label = name.removeprefix("stage.").replace("_", " ")
            print_rss(f"{label} {next(seeds)}" if label == "generate" else label)

    print(f"{'stage':<18}{'peak MiB':>10}{'current MiB':>13}")
    print_rss("imports")
    workloads.desk_pipeline(StageRows("peak-memory"), text_path, text_path.parent, seed)


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
            target=probe, args=(text_path, args.seed))
        child.start()
        child.join()
    return child.exitcode


if __name__ == "__main__":
    sys.exit(main())
