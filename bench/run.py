"""pofsig benchmark of record.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The program under test is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it measures every per-layer metric, runs the workload once untraced and
once with spans around pofsig's public functions, and reports the span
table and the tracing overhead.  End-to-end times are reported at the
host's nominal speed (hostspeed.py).  The second-to-last stdout line is a JSON
report (machine, parameters, failures, spans); the last line is the JSON
result: correct, attempted, failed and metrics.  BENCHMARK.json lists the
workloads and metrics; README.md here defines them.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import STARTUP_EXPONENT, HostClock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3

# Runs in a fresh interpreter: import pofsig, then build one unit of the
# workload's inputs.  The parent times the whole process; the child
# reports the import alone.
SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import pofsig
t1 = time.perf_counter()
import workloads
workloads.WORKLOADS[{name!r}]().build({seed!r}, 0)
print(json.dumps({{"import_s": t1 - t0}}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def measure_setup(name: str, seed: int, reps: int, clock):
    """Seconds of `reps` fresh set-ups at the host's nominal speed, their
    wall seconds, and the import part of each."""
    code = SETUP_CHILD.format(paths=[SRC, BENCH], name=name, seed=seed)
    adjusted, walls, imports = [], [], []
    clock.pace(1.0)  # samples from before the first set-up
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        adjusted.append(walls[-1] / clock.pace(walls[-1], STARTUP_EXPONENT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return adjusted, walls, imports


def environment() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "mem_total_mb": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    info["mem_total_mb"] = int(line.split()[1]) // 1024
                    break
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            info["git_commit"] = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(fname.encode() + b"\0" + data)
    info["src_lines"] = lines
    info["src_sha256"] = digest.hexdigest()
    return info


def run(name, seed, seconds, trace, sizes=None, setup_reps=SETUP_REPS,
        layer_sizes=None):
    """One benchmark run; returns (result, report) as JSON-ready dicts."""
    import layers
    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[name]
    cli = cls is workloads.CliSession
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        clock = HostClock()
        setup, setup_walls, imports = measure_setup(name, seed, setup_reps, clock)

        def make(runner, clock=None):
            if cli:
                return cls(sizes, workdir=workdir, runner=runner, clock=clock)
            return cls(sizes, clock=clock)

        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
        if not trace:
            runner = workloads.SubprocessRunner(workdir, SRC) if cli else None
            wl = make(runner, clock)
            units, wall = workloads.run_units(wl, seed, seconds)
            ops = [op for unit in units for op in unit]
            wl.check(ops)
            if cli:
                peak_kb = max(op.child_rss_kb for op in ops)
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics, detail = workloads.e2e_metrics(
                wl, units, statistics.median(setup), peak_kb / 1024)
            raw, _ = workloads.e2e_metrics(
                wl, units, statistics.median(setup_walls), peak_kb / 1024, adjust=False)
            report["detail"] = dict(
                detail, loop_s=wall, setup_runs_s=setup, setup_wall_s=setup_walls,
                host_slowdown=clock.slowdown(),
                unadjusted={k: v for k, (v, _) in raw.items()})
        else:
            t0 = time.perf_counter()
            metrics = layers.measure(seed, workdir, layer_sizes)
            probe_s = time.perf_counter() - t0
            # Half of what is left runs untraced, the same units traced.
            budget = max(seconds - probe_s, 1.0) / 2.5
            wl = make(workloads.InProcessRunner() if cli else None)
            units, wall_plain = workloads.run_units(wl, seed, budget)
            with Tracer() as tracer:
                wl_traced = make(workloads.InProcessRunner(tracer) if cli else None)
                traced, wall_traced = workloads.run_units(
                    wl_traced, seed, budget, count=len(units))
            ops = [op for unit in units + traced for op in unit]
            wl.check(ops)
            metrics["cli.import_pofsig.ms"] = (1e3 * statistics.median(imports), "ms")
            metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")
            metrics["trace.self_accounted"] = (tracer.root_total_s() / wall_traced, "ratio")
            report["detail"] = {
                "units": len(units),
                "untraced_s": wall_plain,
                "traced_s": wall_traced,
                "probe_s": probe_s,
                "spans_recorded": len(tracer),
                "span_nesting_errors": tracer.nesting_errors(),
                "spans_not_found": tracer.missing,
            }
            report["spans"] = tracer.summary(wall_traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op.failures]
    report["parameters"] = dict(cls.sizes, **(sizes or {}))
    report["error_rate"] = len(failed) / len(ops)
    report["failures"] = [f"{op.name}: {'; '.join(op.failures)}" for op in failed[:10]]
    report["environment"] = environment()
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pofsig", "__init__.py")):
        print(f"error: no pofsig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pofsig

    if not os.path.abspath(pofsig.__file__).startswith(SRC + os.sep):
        print(f"error: imported pofsig from {pofsig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    compileall.compile_dir(SRC, quiet=1)
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
