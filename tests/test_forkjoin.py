"""Fork-join over independent units: the experiment, the Lamport index
and the census give the serial loop's results under any worker count,
the first failing unit's error surfaces with its type and text, and no
child outlives a call."""

import os
import signal
import subprocess
import sys
import time

import pytest

import pofsig
from pofsig import analysis, forkjoin
from pofsig.adversary import ForgeryBudget, build_lamport_preimage_index
from pofsig.analysis import ExperimentConfig, preimage_census, run_fda_experiment
from pofsig.core import LamportParams, derive_wots_params
from pofsig.errors import BudgetExceeded, DomainError

WP = derive_wots_params(6, 2, 4, 2)
SRC = os.path.dirname(os.path.dirname(pofsig.__file__))
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes the affinity mask read k CPUs and returns the list of
    jobs forked from then on."""
    forks = []
    fork = forkjoin._fork

    def counting_fork(fn, job):
        forks.append(job)
        return fork(fn, job)

    monkeypatch.setattr(forkjoin, "_fork", counting_fork)

    def set_cpus(k):
        monkeypatch.setattr(forkjoin, "usable_cpus", lambda: k)
        forks.clear()
        return forks

    return set_cpus


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("run", [
    lambda: run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 4), 500, 3)),
    lambda: run_fda_experiment(ExperimentConfig("wots", WP, 7, 3)),
    lambda: list(build_lamport_preimage_index(LamportParams(8, 10)).items()),
    lambda: preimage_census(8, 0, 50, 5),
], ids=["lamport-experiment", "wots-experiment", "lamport-index", "census"])
def test_results_do_not_depend_on_the_worker_count(cpus, run):
    results = []
    for k in (1, 2, 3):
        forks = cpus(k)
        results.append(run())
        assert len(forks) == k - 1
        assert_no_child_left()
    assert results[0] == results[1] == results[2]


def test_sweeps_too_small_to_pay_for_a_fork_run_inline(cpus):
    forks = cpus(2)
    build_lamport_preimage_index(LamportParams(8, 4))  # 2^12 hashes
    preimage_census(8, 0, 15, 5)  # 15 x 2^8 hashes
    assert forks == []


def test_budget_refusal_comes_before_any_fork(cpus):
    # every trial would sweep a 12-bit depth-0 row: the parameters alone decide
    for k in (1, 3):
        forks = cpus(k)
        with pytest.raises(BudgetExceeded, match="12-bit domain exceeds the 11-bit budget"):
            run_fda_experiment(ExperimentConfig("wots", WP, 3, 0, budget=ForgeryBudget(11)))
        assert forks == []
        assert_no_child_left()


@pytest.mark.parametrize("failing, first", [
    ((5, 7), 5),  # the second child's job and the caller's own
    ((8,), 8),  # the caller's job alone
    ((1, 4, 8), 1),  # every job
    ((4,), 4),  # one child's job
])
def test_the_first_failing_trial_decides_the_error(cpus, monkeypatch, failing, first):
    trial_rng = analysis.trial_rng

    def failing_trial_rng(master, t):
        if t in failing:
            raise DomainError(f"trial {t} failed")
        return trial_rng(master, t)

    monkeypatch.setattr(analysis, "trial_rng", failing_trial_rng)
    forks = cpus(3)  # jobs: trials 0-2, 3-5, and 6-8 in the caller
    with pytest.raises(DomainError, match=f"^trial {first} failed$"):
        run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 2), 9, 1))
    assert len(forks) == 2
    assert_no_child_left()


def test_an_interrupt_in_the_callers_job_kills_every_child(cpus, monkeypatch):
    trial_rng = analysis.trial_rng

    def interrupted(master, t):
        if t >= 6:
            raise KeyboardInterrupt
        time.sleep(60)  # the children are still busy when the caller stops
        return trial_rng(master, t)

    monkeypatch.setattr(analysis, "trial_rng", interrupted)
    cpus(3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 2), 9, 1))
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_worker_killed_by_a_signal_is_an_os_error(cpus, monkeypatch):
    trial_rng, caller = analysis.trial_rng, os.getpid()

    def killed(master, t):
        if t == 0 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return trial_rng(master, t)

    monkeypatch.setattr(analysis, "trial_rng", killed)
    cpus(2)
    with pytest.raises(ChildProcessError, match="worker for job 0 died"):
        run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 2), 4, 1))
    assert_no_child_left()


@pytest.mark.parametrize("exc", [
    BudgetExceeded("enumerating a " + "9" * 40 + "-bit\ndomain " + "x" * 300),
    FileNotFoundError(2, "No such file or directory", "missing.pk"),
    KeyError("k"),
    DomainError(range(3)),  # an argument marshal cannot carry: sent as text
], ids=["pofsig", "os", "builtin", "unmarshallable"])
def test_a_childs_error_keeps_its_type_and_text(exc):
    def job(i):
        if i == 0:
            raise exc
        return i

    with pytest.raises(type(exc)) as info:
        forkjoin.fork_map(job, [0, 1])
    assert type(info.value) is type(exc)
    assert str(info.value) == str(exc)
    assert_no_child_left()


def test_results_cross_the_pipe_exactly():
    def job(i):
        return [0.1 * i, 2.0 ** -1074, 1 << (70 + i), b"\x00\xff" * i, (i, "t")]

    assert forkjoin.fork_map(job, range(3)) == [job(i) for i in range(3)]
    assert_no_child_left()


def _run(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=ENV, timeout=120)


def test_cli_budget_refusal_still_exits_2():
    res = _run("-m", "pofsig", "experiment", "--scheme", "wots", "--n", "8", "--delta", "8",
               "--L", "4", "--nu", "2", "--trials", "3", "--seed", "1")
    assert res.returncode == 2
    assert res.stderr == "error: enumerating a 32-bit domain exceeds the 28-bit budget\n"


def test_experiment_report_is_printed_once():
    # stdout is a pipe, so the first line still sits in its buffer when
    # the workers fork; a child that flushed it would print it twice
    res = _run("-c", "import sys; from pofsig import cli; print('before the run'); "
               "sys.exit(cli.main(['experiment', '--scheme', 'lamport', '--n', '8', "
               "'--delta', '2', '--trials', '400', '--seed', '2a']))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("before the run") == 1
    assert res.stdout.count("verdict:") == 1
