"""``python3 -m bench``: run one workload, the boundary ladder, or the
repeatability self-check.  See ``bench/README.md``."""

import argparse
import atexit
import os
import shutil
import sys

from . import ROOT, SRC


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument(
        "command", nargs="?", default="run", choices=("run", "ladder", "noise")
    )
    parser.add_argument("--workload", help="run: which workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument(
        "--trace",
        default="0",
        help="run: 0 = end-to-end metrics, 1 = traced run with per-layer "
        "metrics (Chrome trace under .bench_build/), or a path for the trace",
    )
    parser.add_argument("--sets", type=int, default=2, help="noise: sets of runs")
    parser.add_argument("--runs", type=int, default=10, help="noise: runs per set")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'repro'} not found; run from a checkout of the repository")

    if args.command == "noise":
        from . import noise

        return noise.main(args.sets, args.runs, args.seconds)

    # Everything the run leaves on disk — the native backend's build
    # directory above all — stays inside the checkout and goes with us.
    scratch = ROOT / ".bench_build" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    os.environ["TMPDIR"] = str(scratch)

    from . import harness

    seconds = args.seconds if args.seconds is not None else harness.SPEC["run_seconds"]
    if args.command == "ladder":
        return harness.ladder(args.seed, seconds)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
    trace_path = None
    if args.trace != "0":
        trace_path = (
            str(ROOT / ".bench_build" / f"trace-{args.workload}.json")
            if args.trace == "1"
            else args.trace
        )
    return harness.run(args.workload, args.seed, seconds, trace_path)


if __name__ == "__main__":
    sys.exit(main())
