"""Fork-join over independent jobs, with the serial loop's results.

``fork_map(fn, jobs)`` is ``[fn(job) for job in jobs]``: every job but
the last runs in a forked child, the last in the caller's process, and
the results come back in job order.  A child inherits the caller's
memory, so ``fn`` may be a closure over tables the caller built; only
its result crosses a pipe, as ``marshal`` data (ints, floats, strings,
bytes, tuples and lists; floats round-trip exactly).  A child leaves by
``os._exit``: it never flushes the caller's stdio or runs ``atexit``.

The first job, in job order, that raises decides the error, rebuilt
with the same type and text, so a caller raises what its serial loop
would have raised.  No child outlives a call.

``split(units)`` cuts ``range(units)`` into one contiguous range per
usable CPU (``usable_cpus``); a single range runs inline, which is the
serial loop itself.  Only ``os``, ``marshal`` and ``sys`` are used, which
every interpreter has loaded already, so no import is added at start.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import BinaryIO, Callable, Sequence, TypeVar

J = TypeVar("J")
R = TypeVar("R")

# Forking and joining one child costs ~2-2.5 ms on a 2-core Xeon VM
# (Python 3.11), the time of ~2500 oracle hashes: a sweep is split only
# into jobs of at least MIN_JOB_HASHES hashes, which save more than that.
# A trial, tens of microseconds to seconds, is always worth a job.
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


def split(units: int, min_units: int = 1) -> list[range]:
    """range(units) as contiguous ranges of at least min_units units (but
    at least one range), one per usable CPU."""
    k = max(1, min(usable_cpus(), units // min_units))
    return [range(units * i // k, units * (i + 1) // k) for i in range(k)]


def fork_map(fn: Callable[[J], R], jobs: Sequence[J]) -> list[R]:
    """[fn(job) for job in jobs], every job but the last in a forked child."""
    *forked, last = jobs
    children: list[tuple[int, BinaryIO]] = []
    try:
        for job in forked:
            children.append(_fork(fn, job))
        try:
            mine = fn(last)
        except Exception as exc:  # an earlier job's error comes first
            mine = exc
        results = []
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[0]
            results.append(_result(len(results), data, status))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    if isinstance(mine, Exception):
        raise mine
    results.append(mine)
    return results


def _fork(fn, job) -> tuple[int, BinaryIO]:
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            try:
                data = marshal.dumps((True, fn(job)))
            except BaseException as exc:
                data = _error_data(exc)
            with open(w, "wb") as out:
                out.write(data)
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _error_data(exc: BaseException) -> bytes:
    """exc's class and the arguments that rebuild it, those pickle uses,
    or its text where marshal cannot carry them."""
    name = (type(exc).__module__, type(exc).__qualname__)
    try:
        return marshal.dumps((False, (*name, exc.__reduce__()[1])))
    except ValueError:
        return marshal.dumps((False, (*name, (str(exc),))))


def _result(i: int, data: bytes, status: int):
    """Job i's result from its child's pipe data; its error is raised again."""
    try:
        ok, value = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        raise ChildProcessError(
            f"worker for job {i} died (wait status {status})") from None
    if ok:
        return value
    raise _rebuild(*value)


def _rebuild(module: str, qualname: str, args: tuple) -> BaseException:
    """The exception a child reported, as its class and arguments."""
    cls = sys.modules.get(module)
    for name in qualname.split("."):
        cls = getattr(cls, name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            return cls(*args)
        except Exception:  # a constructor that does not take its own args
            pass
    return ChildProcessError(f"{qualname}: {' '.join(map(str, args))}")
