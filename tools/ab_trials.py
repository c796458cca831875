"""Interleaved A/B timing of two source trees' benchmark units, in one process.

Usage::

    python tools/ab_trials.py TREE_A TREE_B WORKLOAD ROUNDS [--sizes JSON]

Each tree is a checkout holding ``src/pofsig`` and ``bench/workloads.py``.
Both trees are imported into this one process, each under its own copy of
the ``pofsig``, ``workloads`` and ``hostspeed`` modules, which are swapped
into ``sys.modules`` before the tree's turn.  Round k builds unit k of
WORKLOAD (``lamport-sweep``, ``wots-fda`` or ``census``; the CLI workload
starts processes and is not run here) from seed SEED and runs it once on each
side, A first in even rounds and B first in odd ones.  The process is bound
to one CPU, so ``forkjoin`` runs every job inline and the process time of a
unit, ``time.process_time``, is all of its work.  A host whose speed wanders
slows both sides of a round alike, which a pair of separate benchmark runs
does not.  ``--sizes`` overrides the workload's sizes, as ``bench/run.py``
would, e.g. ``'{"trials": 50, "deltas": [0, 2]}'``.

The report gives each side's median and interquartile range of unit process
time and of trials per second, the ratio B/A of the median times, and the
number of rounds that B won.  An operation whose output check failed is
reported and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

# The modules each tree brings: its package and the benchmark's two modules.
OWN = ("pofsig", "workloads", "hostspeed")
SEED = 1  # the workloads' inputs, as bench/run.py's --seed


def _owned(name: str) -> bool:
    return name.split(".", 1)[0] in OWN


def load(tree: Path, workload: str) -> dict:
    """Import tree's pofsig and bench workloads afresh; return its modules."""
    for name in [n for n in sys.modules if _owned(n)]:
        del sys.modules[name]
    paths = [str(tree / "src"), str(tree / "bench")]
    sys.path[:0] = paths
    try:
        import workloads
    finally:
        del sys.path[:len(paths)]
    if workload not in workloads.WORKLOADS or workload == "cli-session":
        raise SystemExit(f"error: {workload!r} is not an in-process workload of {tree}")
    return {n: m for n, m in sys.modules.items() if _owned(n)}


def run_side(modules: dict, workload: str, sizes, k: int) -> tuple[float, int, list]:
    """(process seconds, trials, failures) of unit k on one tree."""
    sys.modules.update(modules)
    wl = modules["workloads"].WORKLOADS[workload](sizes)
    inputs = wl.build(SEED, k)
    t0 = time.process_time()
    ops = wl.run_unit(inputs)
    elapsed = time.process_time() - t0
    failures = [f"{op.name}: {'; '.join(op.failures)}" for op in ops if op.failures]
    return elapsed, sum(op.trials for op in ops), failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("workload")
    parser.add_argument("rounds", type=int)
    parser.add_argument("--sizes", type=json.loads, default=None)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("ROUNDS must be >= 1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sides = {"A": load(args.tree_a.resolve(), args.workload),
             "B": load(args.tree_b.resolve(), args.workload)}
    times = {"A": [], "B": []}
    rates = {"A": [], "B": []}
    failures = []
    for k in range(args.rounds):
        for side in ("AB" if k % 2 == 0 else "BA"):
            secs, trials, failed = run_side(sides[side], args.workload, args.sizes, k)
            times[side].append(secs)
            rates[side].append(trials / secs)
            failures += [f"{side} round {k}: {f}" for f in failed]
    for side in "AB":
        t1, t2, t3 = quartiles(times[side])
        r1, r2, r3 = quartiles(rates[side])
        print(f"{side}: unit {1e3 * t2:.2f} ms (IQR {1e3 * t1:.2f}..{1e3 * t3:.2f}), "
              f"{r2:.1f} trials/s (IQR {r1:.1f}..{r3:.1f})")
    wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    ratio = statistics.median(times["B"]) / statistics.median(times["A"])
    print(f"B/A median unit time {ratio:.3f}; B faster in {wins} of {args.rounds} rounds")
    for line in failures:
        print(f"failed: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
