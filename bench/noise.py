"""Repeatability self-check: do sets of runs of the same code agree?

``python3 -m bench noise [--sets 2 --runs 10]`` runs every workload
``runs`` times per set, each run in a fresh process.  Run ``k`` of every
set uses seed ``k`` and the sets are interleaved, so every workload x
seed is measured once per set, minutes apart: what differs between two
sets is the host, not the inputs.  For every workload x end-to-end
metric it prints each set's median and quartiles, the spread
``(Q3 - Q1) / median`` against the metric's bound, and the gap between
each later set's median and the first's; then every run made.

It exits non-zero on a miss:

* a spread beyond the bound (``setup_s`` excepted, as in the acceptance
  protocol), or two medians further apart than the bound in *either*
  direction — a set that reads much better disagrees as much as one
  that reads much worse;
* ``elem_io_per_op`` or ``failed`` of one workload x seed not identical,
  bit for bit, in every set: they are counts the program makes and must
  repeat exactly;
* a run that was not correct.

Those decide whether medians of ten runs can be judged by the bounds.
ISSUE 17 also asks that no single run's ``ops_per_s``, ``read_p50_us``
or ``write_p50_us`` lie more than a tenth from its set's median; sets
that hold such a run are flagged ``FAR`` and counted in a verdict of
their own, which does not change the exit code.

The output is markdown; the builder's is committed as ``bench/NOISE.md``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from . import ROOT

#: Metrics of which no single run should stray further than ``FAR``
#: from its set's median.
STEADY = ("ops_per_s", "read_p50_us", "write_p50_us")
FAR = 0.10


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """Run one workload in a child process; its fingerprint and result."""
    out = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(
            f"bench noise: {workload} seed {seed} exited {out.returncode}\n{out.stderr}"
        )
    return {**json.loads(lines[0]), **json.loads(lines[-1])}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``
    (negative: better)."""
    gap = (first - later) if better == "higher" else (later - first)
    return gap / first if first else 0.0


def inexact_seeds(sets_of_runs: list[list[dict]]) -> list[int]:
    """Seeds whose ``elem_io_per_op`` or ``failed`` differ between sets."""

    def counts(run: dict) -> tuple:
        return run["metrics"]["elem_io_per_op"]["value"], run["failed"]

    return [
        runs[0]["host"]["seed"]
        for runs in zip(*sets_of_runs)
        if len({counts(r) for r in runs}) > 1
    ]


def main(sets: int, runs: int, seconds: float | None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = seconds if seconds is not None else spec["run_seconds"]
    results = {name: [[] for _ in range(sets)] for name in names}
    host = {}
    for seed in range(1, runs + 1):
        for set_index in range(sets):
            for name in names:
                result = one_run(name, seed, seconds)
                results[name][set_index].append(result)
                host = result["host"]
                print(
                    f"seed {seed}/{runs} set {set_index + 1} {name} "
                    f"blocks {host['blocks']}",
                    file=sys.stderr,
                )

    keep = ("cpu_count", "pinned_cpu", "python", "numpy", "compiler", "machine", "backend")
    print("# Repeatability of the stack benchmark on the builder's host\n")
    print(f"`python3 -m bench noise --sets {sets} --runs {runs} --seconds {seconds:g}`\n")
    print("Host: " + ", ".join(f"{k} = {host.get(k)}" for k in keep) + "\n")
    print(
        "Every run is its own process; run *k* of every set uses seed *k* and "
        "the sets are interleaved, so the sets differ by the host alone.  "
        "`spread` is (Q3 - Q1) / median of a set; `gap` is how much worse "
        "(+) or better (-) a set's median is than the first set's; "
        "`farthest run` is the largest distance of one run from its set's "
        "median.  `MISS` marks a spread beyond the metric's bound (`setup_s` "
        "excepted) or a gap beyond it in either direction, `FAR` a run of "
        f"{', '.join(f'`{m}`' for m in STEADY)} more than {FAR:.0%} from its "
        "set's median, `tight` a spread beyond a third of the bound.\n"
    )
    misses = far = 0
    for name in names:
        print(f"## {name}\n")
        print("| metric | unit | bound | set | median | Q1 | Q3 | spread | gap | farthest run | |")
        print("|---|---|---|---|---|---|---|---|---|---|---|")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            first = None
            for set_index, set_runs in enumerate(results[name]):
                values = [r["metrics"][key]["value"] for r in set_runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                first = median if first is None else first
                gap = worse_by(first, median, metric["better"])
                farthest = max(abs(v - median) / median for v in values)
                flags = []
                if (spread > bound and key != "setup_s") or abs(gap) > bound:
                    flags.append("MISS")
                elif spread > bound / 3 and key != "setup_s":
                    flags.append("tight")
                misses += "MISS" in flags
                if key in STEADY and farthest > FAR:
                    flags.append("FAR")
                    far += 1
                print(
                    f"| {key} | {metric['unit']} | {bound:.0%} | {set_index + 1} "
                    f"| {median:.4g} | {q1:.4g} | {q3:.4g} | {spread:.2%} "
                    f"| {gap:+.2%} | {farthest:.2%} | {' '.join(flags)} |"
                )
        inexact = inexact_seeds(results[name])
        incorrect = sum(not r["correct"] for s in results[name] for r in s)
        misses += len(inexact) + incorrect
        print(
            f"\n`elem_io_per_op` and `failed` of each seed, identical in every set: "
            + (f"MISS, seeds {inexact} differ" if inexact else "yes")
        )
        if incorrect:
            print(f"\n{incorrect} run(s) were not correct: MISS")
        print("\nEvery run:\n")
        keys = [m["name"] for m in spec["end_to_end"]]
        print("| seed | set | blocks | " + " | ".join(keys) + " |")
        print("|---|---|---|" + "---|" * len(keys))
        for seed_runs in zip(*results[name]):
            for set_index, r in enumerate(seed_runs):
                cells = " | ".join(f"{r['metrics'][k]['value']:.5g}" for k in keys)
                print(
                    f"| {r['host']['seed']} | {set_index + 1} "
                    f"| {r['host']['blocks']} | {cells} |"
                )
        print()
    print(
        f"{'FAIL' if misses else 'PASS'}: {misses} miss(es) against the bounds, "
        "the exact counts and the oracle\n"
    )
    print(
        f"{'NOT MET' if far else 'MET'}: {far} of {len(names) * len(STEADY) * sets} "
        f"sets of {', '.join(f'`{m}`' for m in STEADY)} hold a run more than "
        f"{FAR:.0%} from the set's median"
    )
    return 1 if misses else 0
