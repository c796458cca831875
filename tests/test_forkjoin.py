"""Fork-join over independent units: the experiment, the Lamport index,
a single Lamport forgery and the census give the serial loop's results
under any worker count.
The caller runs the first job and every job whose child did not deliver
(it raised, was killed, could not be forked or returned what marshal
cannot carry), so the first failing unit raises the serial loop's own
exception, with its type, text, cause and traceback.  No child outlives
a call, and the module adds no import at start."""

import ast
import errno
import os
import random
import signal
import subprocess
import sys
import time
import traceback

import pytest

import pofsig
from pofsig import adversary, analysis, forkjoin, lamport
from pofsig.adversary import ForgeryBudget, build_lamport_preimage_index, forge_lamport
from pofsig.analysis import ExperimentConfig, preimage_census, run_fda_experiment
from pofsig.core import BitString, LamportParams, PublicKey, derive_wots_params
from pofsig.errors import BudgetExceeded, DomainError, EmptyPreimageSet

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


LP16 = LamportParams(8, 8)  # a 16-bit domain, swept in forked jobs


def forge_once():
    kp = lamport.keygen(LP16, random.Random(5))
    return forge_lamport(kp.public(), 0, lamport.sign(kp, 0), 1, ForgeryBudget(),
                         random.Random(6))


@pytest.mark.parametrize("run, sweeps", [
    (lambda: run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 4), 500, 3)), 1),
    (lambda: run_fda_experiment(ExperimentConfig("wots", WP, 7, 3)), 1),
    (lambda: list(build_lamport_preimage_index(LamportParams(8, 10)).items()), 1),
    (lambda: preimage_census(8, 0, 50, 5), 1),
    # the index's forks and the trials', none from a trial: each trial
    # looks its target up in the index the experiment built
    (lambda: run_fda_experiment(ExperimentConfig("lamport", LP16, 500, 3)), 2),
    (forge_once, 1),
], ids=["lamport-experiment", "wots-experiment", "lamport-index", "census",
        "lamport-experiment-forked-index", "lamport-forgery"])
def test_results_do_not_depend_on_the_worker_count(cpus, run, sweeps):
    results = []
    for k in (1, 2, 3):
        forks = cpus(k)
        results.append(run())
        assert len(forks) == sweeps * (k - 1)
        assert_no_child_left()
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("params, forked", [(LamportParams(8, 2), False),
                                            (LamportParams(16, 0), True)],
                         ids=["inline", "forked"])
def test_targets_restrict_the_full_index(cpus, params, forked):
    # some images have no preimage (~2% at (8,2), ~37% at (16,0)); the
    # 16-bit domain is swept in two jobs, the 10-bit one inline
    full = build_lamport_preimage_index(params)
    orphans = [y for y in range(1 << params.n) if y not in full][:3]
    targets = set(list(full)[::7]) | set(orphans)
    kp = lamport.keygen(params, random.Random(3))
    pk = PublicKey(params, None, (kp.pk[0], BitString.from_int(orphans[-1], params.n)))
    for k in (1, 2):
        forks = cpus(k)
        restricted = build_lamport_preimage_index(params, targets)
        assert list(restricted.items()) == [(y, vs) for y, vs in full.items() if y in targets]
        with pytest.raises(EmptyPreimageSet):
            forge_lamport(pk, 0, lamport.sign(kp, 0), 1, ForgeryBudget(), random.Random(0))
        assert len(forks) == 2 * (k - 1) * forked  # the index's and the forgery's
        assert_no_child_left()


def test_sweeps_too_small_to_pay_for_a_fork_run_inline(cpus):
    forks = cpus(2)
    build_lamport_preimage_index(LamportParams(8, 4))  # 2^12 hashes
    preimage_census(8, 0, 15, 5)  # 15 x 2^8 hashes
    assert forks == []


def _split_by_min_units(units, min_units=1):
    """The earlier split, where each caller turned MIN_JOB_HASHES into a
    least number of units per job itself."""
    k = max(1, min(forkjoin.usable_cpus(), units // min_units))
    return [range(units * i // k, units * (i + 1) // k) for i in range(k)]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_every_sweep_is_cut_into_the_jobs_it_was_cut_into_before(cpus, monkeypatch, k):
    cpus(k)
    jobs = []

    def serial_map(fn, units):  # records each sweep's jobs, forks none
        jobs.append(units)
        return [fn(unit) for unit in units]

    monkeypatch.setattr(adversary, "fork_map", serial_map)
    monkeypatch.setattr(analysis, "fork_map", serial_map)
    hashes = forkjoin.MIN_JOB_HASHES
    for domain_bits in (12, 13, 14, 16):
        jobs.clear()
        build_lamport_preimage_index(LamportParams(8, domain_bits - 8))
        assert jobs == [_split_by_min_units(1 << domain_bits, hashes)]
    for (n, delta), instances in (((4, 0), 600), ((8, 0), 15), ((8, 0), 50), ((8, 4), 5),
                                  ((8, 6), 3)):
        jobs.clear()
        preimage_census(n, delta, instances, 5)
        assert jobs == [_split_by_min_units(instances, max(1, hashes >> (n + delta)))]
    for trials in (1, 2, 7):
        jobs.clear()
        run_fda_experiment(ExperimentConfig("wots", WP, trials, 3))
        assert jobs == [_split_by_min_units(trials)]
        jobs.clear()
        run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 5), trials, 3))
        assert jobs == [_split_by_min_units(1 << 13, hashes), _split_by_min_units(trials)]


def test_only_forkjoin_names_the_least_job_size():
    package = os.path.dirname(forkjoin.__file__)
    naming = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "forkjoin.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            spelled = (getattr(node, "id", None), getattr(node, "attr", None),
                       node.name if isinstance(node, ast.alias) else None)
            if "MIN_JOB_HASHES" in spelled:
                naming.append(f"{name}:{node.lineno}")
    assert naming == []


def test_budget_refusal_comes_before_any_fork(cpus):
    # the parameters alone decide: (20,3,4,2) has a 29-bit depth 0; at w = 256
    # depth 234 is 29 bits, refused whether or not some trial would invert that
    # deep, and whichever estimator the DP cost would pick (the 0/1 count at
    # L = 96 if widths were capped)
    for args, trials, seed in (((20, 3, 4, 2), 3, 0), ((8, 1, 16, 8), 4, 1),
                               ((8, 1, 96, 8), 4, 1)):
        config = ExperimentConfig("wots", derive_wots_params(*args), trials, seed)
        for k in (1, 3):
            forks = cpus(k)
            with pytest.raises(BudgetExceeded, match="29-bit domain exceeds the 28-bit budget"):
                run_fda_experiment(config)
            assert forks == [], args
            assert_no_child_left()


@pytest.mark.parametrize("failing, first", [
    ((5, 7), 5),  # both children's jobs
    ((8,), 8),  # the last child's job alone
    ((1, 4, 8), 1),  # every job
    ((4,), 4),  # the first child's job
])
def test_the_first_failing_trial_decides_the_error(cpus, monkeypatch, failing, first):
    trial_rng = analysis.trial_rng

    def failing_trial_rng(master, t):
        if t in failing:
            raise DomainError(f"trial {t} failed")
        return trial_rng(master, t)

    monkeypatch.setattr(analysis, "trial_rng", failing_trial_rng)
    forks = cpus(3)  # jobs: trials 0-2 in the caller, 3-5 and 6-8
    with pytest.raises(DomainError, match=f"^trial {first} failed$"):
        run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 2), 9, 1))
    assert len(forks) == 2
    assert_no_child_left()


def test_an_interrupt_in_the_callers_job_kills_every_child(cpus, monkeypatch):
    trial_rng = analysis.trial_rng

    def interrupted(master, t):
        if t < 3:
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


def test_a_worker_killed_by_a_signal_has_its_job_run_by_the_caller(cpus, monkeypatch):
    trial_rng, caller, run_here = analysis.trial_rng, os.getpid(), []

    def killed(master, t):
        if os.getpid() == caller:
            run_here.append(t)
        elif t == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return trial_rng(master, t)

    monkeypatch.setattr(analysis, "trial_rng", killed)
    config = ExperimentConfig("lamport", LamportParams(8, 2), 4, 1)
    cpus(1)
    serial = run_fda_experiment(config)
    forks = cpus(2)  # jobs: trials 0-1 in the caller, 2-3 in the child
    run_here.clear()
    assert run_fda_experiment(config) == serial
    assert forks == [range(2, 4)] and run_here == [0, 1, 2, 3]
    assert_no_child_left()


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_job_that_cannot_be_forked_is_run_by_the_caller(cpus, monkeypatch, call):
    made, calls = getattr(os, call), []

    def second_fails():
        calls.append(call)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return made()

    config = ExperimentConfig("lamport", LamportParams(8, 4), 500, 3)
    cpus(1)
    serial = run_fda_experiment(config)
    forks = cpus(3)
    monkeypatch.setattr(forkjoin.os, call, second_fails)
    assert run_fda_experiment(config) == serial
    assert len(forks) == 2 and len(calls) == 2
    assert_no_child_left()


def test_an_index_job_rerun_by_the_caller_joins_as_a_delivered_one(cpus, monkeypatch):
    # a delivered job's members arrive as bytes, a rerun one's as arrays
    cpus(1)
    serial = list(build_lamport_preimage_index(LamportParams(8, 10)).items())
    fork, forks = forkjoin.os.fork, cpus(3)

    def second_fails():
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(forkjoin.os, "fork", second_fails)
    assert list(build_lamport_preimage_index(LamportParams(8, 10)).items()) == serial
    assert len(forks) == 2
    assert_no_child_left()


class KeywordError(Exception):
    """An error whose constructor does not take its own args."""

    def __init__(self, text, *, key):
        super().__init__(text)
        self.key = key


@pytest.mark.parametrize("exc", [
    BudgetExceeded("enumerating a " + "9" * 40 + "-bit\ndomain " + "x" * 300),
    FileNotFoundError(2, "No such file or directory", "missing.pk"),
    KeyError("k"),
    DomainError(range(3)),  # an argument marshal cannot carry
    KeywordError("no key", key=1),
], ids=["pofsig", "os", "builtin", "unmarshallable", "keyword-only"])
def test_a_childs_error_keeps_its_type_and_text(exc):
    def job(i):
        if i == 1:  # the first child's job
            raise exc
        return i

    with pytest.raises(type(exc)) as info:
        forkjoin.fork_map(job, [0, 1, 2])
    assert type(info.value) is type(exc)
    assert str(info.value) == str(exc)
    assert_no_child_left()


def test_a_childs_error_keeps_its_cause_and_traceback():
    def failing_job(i):
        if i == 1:
            raise DomainError("x") from KeyError("k")
        return i

    with pytest.raises(DomainError, match="^x$") as info:
        forkjoin.fork_map(failing_job, [0, 1, 2])
    assert type(info.value.__cause__) is KeyError
    assert "failing_job" in [frame.name for frame in traceback.extract_tb(info.tb)]
    assert_no_child_left()


@pytest.mark.parametrize("result", [
    lambda i: BitString.from_int(i, 8),
    lambda i: range(i),
], ids=["bitstring", "range"])
def test_a_result_marshal_cannot_carry_is_the_serial_loops(result):
    def job(i):
        return result(i) if i == 1 else i

    assert forkjoin.fork_map(job, [0, 1, 2]) == [job(i) for i in range(3)]
    assert_no_child_left()


def test_results_cross_the_pipe_exactly():
    def job(i):
        return [0.1 * i, 2.0 ** -1074, 1 << (70 + i), b"\x00\xff" * i, (i, "t")]

    assert forkjoin.fork_map(job, range(3)) == [job(i) for i in range(3)]
    assert_no_child_left()


def test_forkjoin_imports_only_what_every_interpreter_has_loaded():
    with open(forkjoin.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "marshal", "os", "sys"}


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
