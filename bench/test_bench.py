"""Smoke test of the benchmark itself, at tiny sizes.

Checks that every metric BENCHMARK.json names comes out with its unit,
that traced spans nest with non-negative self times, that corrupted
program outputs are counted as failed operations, and that the runner
refuses to run without the program's sources.
"""

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hostspeed  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from pofsig import analysis  # noqa: E402
from pofsig.core import LamportParams  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "lamport-sweep": {"n": 4, "deltas": (0, 2), "trials": 40},
    "wots-fda": {"params": (4, 1, 4, 2), "batch": 4},
    "census": {"points": ((4, 0, 24), (4, 2, 8))},
    "cli-session": {"lamport": (4, 2), "wots": (4, 1, 4, 2), "experiment_trials": 100},
}
TINY_LAYERS = {
    "wots": (4, 1, 4, 2), "lamport": (4, 2), "index_delta": 2, "memory_delta": 2,
    "census": (4, 2, 4), "experiment_trials": 40, "calls": 4, "forges": 2,
    "reps": 1, "cli_samples": 1, "startup_reps": 1,
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _tiny(name, tmp_path, runner=None):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliSession:
        return cls(TINY[name], workdir=str(tmp_path),
                   runner=runner or workloads.InProcessRunner())
    return cls(TINY[name])


def _assert_metrics(metrics, declared):
    for m in declared:
        assert m["name"] in metrics, m["name"]
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, float) and value == value, m["name"]


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_at_tiny_sizes(name, tmp_path):
    wl = _tiny(name, tmp_path)
    units, _ = workloads.run_units(wl, seed=7, budget_s=0.0, count=2)
    ops = [op for unit in units for op in unit]
    wl.check(ops)
    assert not [op.failures for op in ops if op.failures]
    metrics, detail = workloads.e2e_metrics(wl, units, setup_s=1.0, peak_rss_mb=1.0)
    _assert_metrics(metrics, SPEC["end_to_end"])
    assert all(metrics[m["name"]][0] >= 0 for m in SPEC["end_to_end"])
    assert detail["cmd_ms_tail_samples"] == (
        len(units) if wl.unit_is_operation else len(ops))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_spans_nest(name, tmp_path):
    with Tracer() as tracer:
        runner = workloads.InProcessRunner(tracer)
        wl = _tiny(name, tmp_path, runner)
        units, _ = workloads.run_units(wl, seed=8, budget_s=0.0, count=1)
    assert not tracer.missing
    assert len(tracer) > 0
    assert tracer.nesting_errors() == 0
    assert min(tracer.self_times_ns()) >= 0
    summary = tracer.summary(1.0)
    assert abs(sum(v["self_s"] for v in summary.values()) - tracer.root_total_s()) < 1e-6
    # the patches are gone after the pass
    assert not hasattr(analysis.run_fda_experiment, "__wrapped__")


def test_traced_run_reports_every_per_layer_metric():
    result, report = bench_run.run(
        "census", 9, 0.5, 1, sizes=TINY["census"], setup_reps=1,
        layer_sizes=TINY_LAYERS)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    _assert_metrics(metrics, SPEC["per_layer"])
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert report["detail"]["span_nesting_errors"] == 0
    assert report["spans"]["analysis.preimage_census"]["calls"] >= 2
    for key in ("nproc", "cpu_model", "mem_total_mb", "python", "numpy", "scipy",
                "src_lines"):
        assert report["environment"][key], key


def test_untraced_run_prints_every_end_to_end_metric():
    result, report = bench_run.run(
        "lamport-sweep", 10, 0.1, 0, sizes=TINY["lamport-sweep"], setup_reps=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert report["error_rate"] == 0.0
    assert report["detail"]["host_slowdown"] > 0
    assert set(report["detail"]["unadjusted"]) == set(result["metrics"])


def test_host_clock_divides_each_operation_by_its_slowdown():
    clock = hostspeed.HostClock()
    assert clock.pace(0.01, exponent=0.0) == 1.0
    s = clock.pace(0.01)
    assert s > 0 and len(clock.samples) == 2
    assert clock.pace(0.01, exponent=0.5) > 0
    wl = workloads.WotsFda(TINY["wots-fda"], clock=clock)
    units, _ = workloads.run_units(wl, seed=12, budget_s=0.0, count=2)
    ops = [op for unit in units for op in unit]
    assert all(op.slowdown > 0 and op.adjusted_s == op.wall_s / op.slowdown for op in ops)
    adjusted, _ = workloads.e2e_metrics(wl, units, setup_s=1.0, peak_rss_mb=1.0)
    raw, _ = workloads.e2e_metrics(wl, units, setup_s=1.0, peak_rss_mb=1.0, adjust=False)
    assert adjusted["cmd_ms_p50"][0] != raw["cmd_ms_p50"][0]
    assert raw["trials_per_s"][0] == statistics.median(
        sum(op.trials for op in unit) / sum(op.wall_s for op in unit) for unit in units)


def _flip_evidence_bit(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    for i, line in enumerate(lines):
        if line.startswith("sigma_star"):
            name, value = line.split(": ")
            lines[i] = f"{name}: {int(value[0], 16) ^ 8:x}{value[1:]}"
            break
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


def test_flipped_evidence_bit_counts_as_failure(tmp_path):
    inner = workloads.InProcessRunner()
    flipped = []

    def corrupting(argv):
        code, out, wall, rss = inner(argv)
        if argv[0] == "detect" and code == 0:
            _flip_evidence_bit(argv[argv.index("--pof-out") + 1])
            flipped.append(argv[0])
        return code, out, wall, rss

    wl = _tiny("cli-session", tmp_path, corrupting)
    units, _ = workloads.run_units(wl, seed=11, budget_s=0.0, count=3)
    failed = [op.name.split()[-1] for unit in units for op in unit if op.failures]
    assert flipped and failed
    # A flipped bit can land on another valid preimage; whenever it does
    # not, both the written-file check and `verify-pof` must fail.
    assert set(failed) == {"detect", "verify-pof"}
    assert failed.count("detect") == failed.count("verify-pof")


def test_corrupted_reports_fail_their_checks():
    config = analysis.ExperimentConfig("lamport", LamportParams(4, 2), 60, 3)
    report = analysis.run_fda_experiment(config)
    op = workloads.Op("x", 0.0)
    workloads._check_experiment(op, report, 60)
    assert not op.failures
    bad = dataclasses.replace(report, evidence_ok_count=report.detected_count - 1)
    workloads._check_experiment(op, bad, 60)
    assert op.failures

    census = analysis.preimage_census(4, 0, 12, 5)
    op = workloads.Op("y", 0.0)
    workloads.check_census(op, census, 12)
    assert not op.failures
    counts = dict(census.counts)
    counts[max(counts)] += 1
    workloads.check_census(op, dataclasses.replace(census, counts=counts), 12)
    assert op.failures

    ops = [workloads.Op("z", 0.0, point=("lamport", 4, 2), estimate=0.9,
                        stderr=0.01, samples=1000)]
    workloads.LamportSweep(TINY["lamport-sweep"]).check(ops)
    assert ops[0].failures


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
