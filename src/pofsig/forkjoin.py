"""Fork-join over independent jobs, with the serial loop's results.

``fork_map(fn, jobs)`` is ``[fn(job) for job in jobs]``: the caller runs
the first job and a forked child each other one.  A child inherits the
caller's memory, so ``fn`` may close over tables the caller built.  It
sends back its result as ``marshal`` data (floats round-trip exactly)
and exits 0, or exits non-zero with nothing sent: it raised, was killed
or returned what marshal cannot carry.  It leaves by ``os._exit``, so it
never flushes the caller's stdio or runs ``atexit``.

``fn`` must be pure in its job and in the memory the caller forked with:
the caller runs, in job order, every job whose child did not deliver or
could not be forked.  So the first failing job in job order raises the
serial loop's own exception, with its cause and traceback, and no child
outlives a call.

``split(units, unit_hashes)`` cuts ``range(units)`` into one contiguous
range per usable CPU, each worth a fork; one range runs inline.  ``os``,
``marshal`` and ``sys``, the only modules used, are loaded in every
interpreter: no import is added.
"""

from __future__ import annotations

import marshal
import os
import sys

# Forking and joining one child costs ~1.5-2.2 ms on a 2-core Xeon VM
# (Python 3.11), the time of ~1800-4500 oracle hashes at ~0.49-0.86 us
# each, as the host's speed wanders: a sweep is split only into jobs of
# at least MIN_JOB_HASHES hashes, near that break-even.
# A trial, tens of microseconds to seconds, is always worth a job: it is
# split's default unit.
MIN_JOB_HASHES = 1 << 12


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or 1 where it
    cannot fork or where another thread runs (a forked child holds only
    the forking thread, and any lock another thread held stays locked)."""
    if not hasattr(os, "fork"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this OS
        return os.cpu_count() or 1


def split(units: int, unit_hashes: int = MIN_JOB_HASHES) -> list[range]:
    """range(units) as contiguous ranges of at least MIN_JOB_HASHES hashes
    (but at least one range), one per usable CPU; a unit costs unit_hashes."""
    k = max(1, min(usable_cpus(), units // max(1, MIN_JOB_HASHES // unit_hashes)))
    return [range(units * i // k, units * (i + 1) // k) for i in range(k)]


def fork_map(fn, jobs) -> list:
    """[fn(job) for job in jobs], every job but the first in a forked child."""
    first, *rest = jobs
    children = {}  # job number: (pid, its pipe's read end)
    try:
        for i, job in enumerate(rest):
            try:
                children[i] = _fork(fn, job)
            except OSError:  # no pipe or no process: the caller runs it
                pass
        results = [fn(first)]
        for i, job in enumerate(rest):
            status = 1  # no child: the caller runs the job
            if i in children:
                pid, pipe = children[i]
                data = pipe.read()
                pipe.close()
                status = os.waitpid(pid, 0)[1]
                del children[i]
            results.append(fn(job) if status else marshal.loads(data))
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return results


def _fork(fn, job) -> tuple:
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            with open(w, "wb") as out:
                out.write(marshal.dumps(fn(job)))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, open(r, "rb")
