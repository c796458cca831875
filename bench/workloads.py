"""The four benchmark workloads, their output checks and end-to-end metrics.

Every workload is a closed loop with one caller.  It is cut into units
(one δ-sweep, one experiment batch, one census pair, one CLI cycle);
unit k's inputs depend only on the seed and k, so a traced pass can
replay exactly the units an untraced pass ran.  Each unit yields
operations: the library calls or CLI commands a caller waits on.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from typing import Optional

from hostspeed import LIBRARY_EXPONENT, STARTUP_EXPONENT
from pofsig import analysis, cli, lamport, pof, serial, wots
from pofsig.core import BitString, LamportParams, derive_wots_params

Z95 = 1.96
CI_TARGET = 0.005  # ci_cost_s projects the time to pin the rate to ±0.005
SIGMAS = 4.0  # tolerance of the statistical output checks

COMMAND_TIMEOUT_S = 60  # a CLI command still running then is killed and fails

# Undetected rate of WOTS at (n, delta, L, nu) = (6, 2, 4, 2), averaged
# over keys and message pairs, used only to scale ci_cost_s.  Made by
# `python3 bench/wots_reference.py 20261017 10000`: 0.0353 with a
# standard error of 0.0008.
WOTS_REFERENCE_RATE = {(6, 2, 4, 2): 0.0353}


def subseed(seed: int, *labels) -> int:
    """64-bit seed for one input, derived from the run seed and a label."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Op:
    """One operation a caller waits on: a library call or a CLI command."""

    name: str
    wall_s: float
    trials: int = 1  # units counted by trials_per_s
    point: Optional[tuple] = None  # parameter point of an undetected-rate estimate
    estimate: Optional[float] = None
    stderr: Optional[float] = None
    samples: int = 0  # Monte Carlo samples behind estimate
    mean: Optional[float] = None  # census mean preimage count
    child_rss_kb: int = 0
    slowdown: float = 1.0  # the host's around the operation, as hostspeed.py applies it
    failures: list = field(default_factory=list)

    @property
    def adjusted_s(self) -> float:
        """Wall time at the host's nominal speed (see hostspeed.py)."""
        return self.wall_s / self.slowdown


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args), None, time.perf_counter() - t0
    except Exception as exc:  # the benchmark counts it and keeps running
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0


def _check_experiment(op: Op, report, trials: int) -> None:
    """Per-call checks of an ExperimentReport; failures are appended to op."""
    if report.trials != trials:
        op.failures.append(f"ran {report.trials} trials, asked for {trials}")
    if report.detected_count + report.undetected_count != report.trials:
        op.failures.append("detected + undetected != trials")
    if report.evidence_ok_count != report.detected_count:
        op.failures.append(
            f"evidence verified for {report.evidence_ok_count} of "
            f"{report.detected_count} detected trials"
        )


def _fail(ops, reason: str) -> None:
    """A failed check on pooled outputs fails every operation behind them."""
    for op in ops:
        op.failures.append(reason)


def _by_point(ops) -> dict:
    """Operations that produced an estimate, grouped by parameter point."""
    groups: dict = {}
    for op in ops:
        if op.estimate is not None:
            groups.setdefault(op.point, []).append(op)
    return groups


def _weighted(at, attr: str):
    """Total samples and the sample-weighted mean of attr over ops at one point."""
    samples = sum(op.samples for op in at)
    return samples, sum(getattr(op, attr) * op.samples for op in at) / samples


@functools.lru_cache(maxsize=None)
def lamport_exact_rate(n: int, delta: int) -> float:
    """|Im H| / 2^(n+delta): the undetected rate of the one fixed Lamport hash."""
    params = LamportParams(n, delta)
    bits = params.sk_bits
    images = {
        lamport.hash_secret(params, BitString.from_int(v, bits)).payload
        for v in range(1 << bits)
    }
    return len(images) / (1 << bits)


class Workload:
    """Sizes and the host clock shared by the workloads below."""

    name = ""
    unit_is_operation = False  # True: the caller waits on a whole unit
    min_units = 1  # a timed pass runs at least this many units
    sizes: dict = {}

    def __init__(self, sizes=None, clock=None):
        self.sizes = dict(self.sizes, **(sizes or {}))
        self.clock = clock  # a hostspeed.HostClock in timed runs

    def paced(self, wall_s: float, exponent: float = LIBRARY_EXPONENT) -> float:
        """The host's slowdown, sampled after an operation of wall_s seconds."""
        return 1.0 if self.clock is None else self.clock.pace(wall_s, exponent)

    def timed(self, fn, *args):
        """(result, error, wall_s, slowdown) of one call."""
        result, error, wall = _timed(fn, *args)
        return result, error, wall, self.paced(wall)

    def experiment_op(self, name, point, config) -> Op:
        report, error, wall, slow = self.timed(analysis.run_fda_experiment, config)
        op = Op(name, wall, trials=config.trials, point=point, slowdown=slow)
        if error:
            op.failures.append(error)
            return op
        op.estimate, op.stderr, op.samples = report.undetected_rate, report.stderr, report.trials
        _check_experiment(op, report, config.trials)
        return op


class LamportSweep(Workload):
    name = "lamport-sweep"
    unit_is_operation = True  # the caller waits on the whole sweep
    sizes = {"n": 8, "deltas": (0, 2, 4, 6, 8, 10), "trials": 2000}

    def build(self, seed: int, k: int):
        n, trials = self.sizes["n"], self.sizes["trials"]
        return [
            analysis.ExperimentConfig(
                "lamport", LamportParams(n, d), trials, subseed(seed, self.name, k, d)
            )
            for d in self.sizes["deltas"]
        ]

    def run_unit(self, configs):
        return [
            self.experiment_op(
                f"run_fda_experiment lamport delta={c.params.delta}",
                ("lamport", c.params.n, c.params.delta),
                c,
            )
            for c in configs
        ]

    @staticmethod
    def reference_rate(point) -> float:
        return lamport_exact_rate(point[1], point[2])

    def check(self, ops) -> None:
        for point, at in _by_point(ops).items():
            samples, rate = _weighted(at, "estimate")
            exact = lamport_exact_rate(point[1], point[2])
            if abs(rate - exact) > SIGMAS * math.sqrt(exact * (1.0 - exact) / samples):
                _fail(at, f"rate {rate:.6f} over {samples} trials is more than "
                          f"{SIGMAS} sigma from the exact {exact:.6f}")


class WotsFda(Workload):
    name = "wots-fda"
    sizes = {"params": (6, 2, 4, 2), "batch": 50}

    def build(self, seed: int, k: int):
        params = derive_wots_params(*self.sizes["params"])
        return analysis.ExperimentConfig(
            "wots", params, self.sizes["batch"], subseed(seed, self.name, k)
        )

    @staticmethod
    def reference_rate(point) -> float:
        return WOTS_REFERENCE_RATE.get(point[1:])

    def run_unit(self, config):
        point = ("wots",) + tuple(self.sizes["params"])
        return [self.experiment_op("run_fda_experiment wots", point, config)]

    def check(self, ops) -> None:
        # The sharp bound 2^-delta that acceptance criterion 3 also asserts.
        for point, at in _by_point(ops).items():
            samples, rate = _weighted(at, "estimate")
            bound = 2.0 ** -point[2]
            if rate > bound + SIGMAS * math.sqrt(bound * (1.0 - bound) / samples):
                _fail(at, f"rate {rate:.4f} over {samples} trials is above 2^-delta")


def census_model_rate(n: int, delta: int) -> float:
    """E[1/N] under the model: (1 - (1 - 2^-n)^(2^(n+delta))) / 2^delta."""
    return -math.expm1(2.0 ** (n + delta) * math.log1p(-(2.0 ** -n))) / 2 ** delta


def census_model_mean(n: int, delta: int) -> float:
    """Mean preimage count under 1 + Bin(2^(n+delta) - 1, 2^-n)."""
    return 1.0 + (2 ** (n + delta) - 1) * 2.0 ** -n


def check_census(op: Op, report, instances: int) -> None:
    counts = report.counts
    if sum(counts.values()) != instances:
        op.failures.append(f"counts sum to {sum(counts.values())}, not {instances}")
    if any(N < 1 for N in counts):
        op.failures.append("a preimage count below 1")
    mean = sum(N * c for N, c in counts.items()) / instances
    if not math.isclose(mean, report.mean, rel_tol=1e-12):
        op.failures.append(f"reported mean {report.mean} != mean of counts {mean}")


class Census(Workload):
    name = "census"
    sizes = {"points": ((8, 0, 1200), (8, 2, 300))}

    @staticmethod
    def reference_rate(point) -> float:
        return census_model_rate(point[1], point[2])

    def build(self, seed: int, k: int):
        return [
            (n, d, inst, subseed(seed, self.name, k, n, d))
            for n, d, inst in self.sizes["points"]
        ]

    def run_unit(self, calls):
        ops = []
        for n, d, inst, seed in calls:
            report, error, wall, slow = self.timed(
                analysis.preimage_census, n, d, inst, seed)
            op = Op(f"preimage_census n={n} delta={d}", wall, trials=inst,
                    point=("census", n, d), slowdown=slow)
            ops.append(op)
            if error:
                op.failures.append(error)
                continue
            check_census(op, report, inst)
            # A forger picking a uniform preimage misses x0 with chance
            # 1/N, so the census also estimates the undetected rate E[1/N].
            inv = sum(c / N for N, c in report.counts.items()) / inst
            inv2 = sum(c / (N * N) for N, c in report.counts.items()) / inst
            op.estimate, op.samples = inv, inst
            op.stderr = math.sqrt(max(inv2 - inv * inv, 0.0) / inst)
            op.mean = report.mean
        return ops

    def check(self, ops) -> None:
        for (_, n, d), at in _by_point(ops).items():
            samples, mean = _weighted(at, "mean")
            model = census_model_mean(n, d)
            var = (2 ** (n + d) - 1) * 2.0 ** -n * (1 - 2.0 ** -n)
            if abs(mean - model) > SIGMAS * math.sqrt(var / samples):
                _fail(at, f"census mean {mean:.4f} over {samples} instances is more "
                          f"than {SIGMAS} sigma from the model mean {model:.4f}")


# ---------------------------------------------------------------------------
# CLI session


class SubprocessRunner:
    """Runs one ``python -m pofsig`` process per command, like a shell user."""

    def __init__(self, workdir: str, src: str):
        self.workdir = workdir
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def __call__(self, argv):
        out_path = os.path.join(self.workdir, "stdout.txt")
        with open(out_path, "w+b") as out, open(os.devnull, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "pofsig", *argv],
                stdout=out, stderr=err, env=self.env, cwd=self.workdir,
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode("utf-8", "replace")
        return proc.returncode, text, wall, usage.ru_maxrss


class InProcessRunner:
    """Calls ``cli.main`` in this process; with a tracer, one span per subcommand."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._mains: dict = {}

    def __call__(self, argv):
        main = cli.main
        if self.tracer is not None:
            if argv[0] not in self._mains:
                self._mains[argv[0]] = self.tracer.wrap(cli.main, f"cli.main.{argv[0]}")
            main = self._mains[argv[0]]
        out = StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(StringIO()):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), time.perf_counter() - t0, 0


_KEY_TYPES = {
    "lamport": (lamport.LamportKeyPair, lamport.LamportPublicKey),
    "wots": (wots.WotsKeyPair, wots.WotsPublicKey),
}
_RATE_RE = re.compile(
    r"^undetected rate: +([0-9.]+) +\(95% CI ([0-9.]+)\.\.([0-9.]+)\)$", re.M
)
_EVIDENCE_RE = re.compile(r"^evidence ok: +([0-9]+)/([0-9]+)$", re.M)
_TRIALS_RE = re.compile(r"^trials: +([0-9]+)$", re.M)


class CliSession(Workload):
    """Unit k runs `experiment`, then the file flow of one scheme, lamport
    for even k and wots with `bounds` for odd k: 6-8 cold starts a unit."""

    name = "cli-session"
    min_units = 2  # both schemes in every timed pass
    SCHEMES = ("lamport", "wots")
    COMMANDS = ("lamport experiment", "bounds") + tuple(
        f"{scheme} {cmd}"
        for scheme in ("lamport", "wots")
        for cmd in ("keygen", "sign", "verify", "forge", "detect", "verify-pof")
    )
    sizes = {
        "lamport": (8, 2),
        "wots": (4, 1, 4, 2),
        "experiment_trials": 4000,
        "max_domain_bits": 16,
    }

    def __init__(self, sizes=None, workdir: str = ".", runner=None, clock=None):
        super().__init__(sizes, clock)
        self.workdir = workdir
        self.runner = runner

    def build(self, seed: int, k: int):
        """Command-line inputs of unit k: seeds and messages per scheme."""
        s = self.sizes
        rng_bits = subseed(seed, self.name, k, "messages")
        L = s["wots"][2]
        known_w = (rng_bits >> 8) % (1 << L)
        target_w = (known_w + 1 + (rng_bits >> 32) % ((1 << L) - 1)) % (1 << L)
        schemes = {
            "lamport": {
                "params": ["--scheme", "lamport", "--n", str(s["lamport"][0]),
                           "--delta", str(s["lamport"][1])],
                "known": str(rng_bits & 1),
                "target": str(1 - (rng_bits & 1)),
            },
            "wots": {
                "params": ["--scheme", "wots", "--n", str(s["wots"][0]),
                           "--delta", str(s["wots"][1]), "--L", str(s["wots"][2]),
                           "--nu", str(s["wots"][3])],
                "known": BitString.from_int(known_w, L).hex(),
                "target": BitString.from_int(target_w, L).hex(),
            },
        }
        for name, spec in schemes.items():
            spec["keygen_seed"] = f"{subseed(seed, self.name, k, name, 'keygen'):x}"
            spec["forge_seed"] = f"{subseed(seed, self.name, k, name, 'forge'):x}"
            spec["files"] = {
                f: os.path.join(self.workdir, f"{name}-{f}.txt")
                for f in ("sk", "pk", "sig", "forged", "pof")
            }
        return {
            "scheme": self.SCHEMES[k % len(self.SCHEMES)],
            "schemes": schemes,
            "experiment_seed": f"{subseed(seed, self.name, k, 'experiment'):x}",
        }

    def _command(self, ops, label, argv, expected):
        code, out, wall, rss = self.runner(argv)
        op = Op(label, wall, child_rss_kb=rss,
                slowdown=self.paced(wall, STARTUP_EXPONENT))
        if code not in expected:
            op.failures.append(f"exit code {code}, expected one of {sorted(expected)}")
        ops.append(op)
        return op, code, out

    @staticmethod
    def _reparse(op, path, kinds):
        """Every written file must parse back with serial.loads into its kind."""
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                obj = serial.loads(fh.read())
        except Exception as exc:
            op.failures.append(f"{os.path.basename(path)}: {type(exc).__name__}: {exc}")
            return None
        if not isinstance(obj, kinds):
            op.failures.append(f"{os.path.basename(path)} parsed as {type(obj).__name__}")
            return None
        return obj

    def run_unit(self, inputs):
        s = self.sizes
        ops: list[Op] = []
        lam_n, lam_d = s["lamport"]
        scheme = inputs["scheme"]
        spec = inputs["schemes"][scheme]
        op, code, out = self._command(
            ops, "lamport experiment",
            ["experiment", *inputs["schemes"]["lamport"]["params"],
             "--trials", str(s["experiment_trials"]), "--seed", inputs["experiment_seed"]],
            {0},
        )
        rate, ev, trials = _RATE_RE.search(out), _EVIDENCE_RE.search(out), _TRIALS_RE.search(out)
        if code == 0 and not (rate and ev and trials):
            op.failures.append("experiment report lacks its rate, CI or evidence lines")
        elif code == 0:
            if ev.group(1) != ev.group(2):
                op.failures.append(f"evidence ok {ev.group(1)}/{ev.group(2)}")
            op.point = ("cli-lamport", lam_n, lam_d)
            op.estimate = float(rate.group(1))
            op.stderr = (float(rate.group(3)) - float(rate.group(2))) / 2 / Z95
            op.samples = int(trials.group(1))
        if scheme == "wots":
            op, code, out = self._command(
                ops, "bounds", ["bounds", "--n", str(lam_n), "--delta", str(lam_d)], {0}
            )
            if code == 0 and "upper bound:" not in out:
                op.failures.append("bounds output lacks the upper bound")

        f = spec["files"]
        for path in f.values():
            if os.path.exists(path):
                os.remove(path)
        op, code, _ = self._command(
            ops, f"{scheme} keygen",
            ["keygen", *spec["params"], "--seed", spec["keygen_seed"],
             "--sk-out", f["sk"], "--pk-out", f["pk"]],
            {0},
        )
        if code == 0:
            self._reparse(op, f["sk"], _KEY_TYPES[scheme][0])
            self._reparse(op, f["pk"], _KEY_TYPES[scheme][1])
        op, code, _ = self._command(
            ops, f"{scheme} sign",
            ["sign", "--sk", f["sk"], "--message", spec["known"], "--out", f["sig"]],
            {0},
        )
        if code == 0:
            self._reparse(op, f["sig"], serial.SignatureFile)
        op, code, out = self._command(
            ops, f"{scheme} verify",
            ["verify", "--pk", f["pk"], "--sig", f["sig"], "--message", spec["known"]],
            {0},
        )
        if code == 0 and out.strip() != "valid":
            op.failures.append(f"verify printed {out.strip()!r}")
        op, code, _ = self._command(
            ops, f"{scheme} forge",
            ["forge", "--pk", f["pk"], "--known-message", spec["known"],
             "--known-sig", f["sig"], "--target-message", spec["target"],
             "--max-domain-bits", str(s["max_domain_bits"]),
             "--seed", spec["forge_seed"], "--out", f["forged"]],
            {0},
        )
        if code == 0:
            self._reparse(op, f["forged"], serial.SignatureFile)
        # 4 means the forger reproduced the signer's own signature.
        op, code, _ = self._command(
            ops, f"{scheme} detect",
            ["detect", "--sk", f["sk"], "--message", spec["target"],
             "--sig", f["forged"], "--pof-out", f["pof"]],
            {0, 4},
        )
        if code == 0:
            evidence = self._reparse(op, f["pof"], pof.PofEvidenceII)
            if evidence is not None and pof.verify_pof2(evidence) != 1:
                op.failures.append("written evidence fails verify_pof2")
            op, code, out = self._command(
                ops, f"{scheme} verify-pof", ["verify-pof", "--pof", f["pof"]], {0}
            )
            if code == 0 and out.strip() != "valid evidence":
                op.failures.append(f"verify-pof printed {out.strip()!r}")
        return ops

    @staticmethod
    def reference_rate(point) -> float:
        return lamport_exact_rate(point[1], point[2])

    def check(self, ops) -> None:
        return None


WORKLOADS = {w.name: w for w in (LamportSweep, WotsFda, Census, CliSession)}


# ---------------------------------------------------------------------------
# Running and end-to-end metrics


def run_units(workload, seed: int, budget_s: float, count: Optional[int] = None):
    """Closed loop over units: exactly `count` units, or as many whole units
    as fit in budget_s (at least workload.min_units)."""
    units = []
    t0 = time.perf_counter()
    k = 0
    while True:
        if count is not None:
            if k >= count:
                break
        elif k >= workload.min_units:
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / k > budget_s:
                break
        units.append(workload.run_unit(workload.build(seed, k)))
        k += 1
    return units, time.perf_counter() - t0


def tail_quantile(n: int) -> float:
    """Highest quantile with at least ten samples beyond it, never below the median."""
    return max(0.5, (n - 10) / n) if n else 0.5


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    if q <= 0.5:
        return statistics.median(ordered)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def ci_cost_s(ops, reference_rate, adjust: bool = True) -> float:
    """Seconds to pin every point's undetected rate to ±0.005 at 95%.

    Per point: wall_s × (CI half-width / 0.005)², the half-width being
    that of the trial-weighted mean of the calls' reported estimates,
    and wall_s / trials taken as the median over the point's calls, at
    the host's nominal speed.
    Where the point has a reference rate r_ref, the reported variance
    is rescaled by r_ref(1 - r_ref) / r(1 - r), from a Bernoulli trial's
    at the run's own estimate r to one at r_ref.  Monte Carlo noise in r
    then cancels, while seconds per trial and the estimator's variance
    relative to a plain 0/1 count still count in full.
    """
    total = 0.0
    for point, at in _by_point(ops).items():
        samples, rate = _weighted(at, "estimate")
        var_per_sample = sum((op.samples * op.stderr) ** 2 for op in at) / samples
        s_per_sample = statistics.median(
            (op.adjusted_s if adjust else op.wall_s) / op.samples for op in at)
        bernoulli = rate * (1.0 - rate)
        ref = reference_rate(point)
        scale = 1.0
        if ref is not None and bernoulli > 0:
            scale = ref * (1.0 - ref) / bernoulli
        total += s_per_sample * Z95 ** 2 * var_per_sample * scale / CI_TARGET ** 2
    return total


def e2e_metrics(workload, units, setup_s: float, peak_rss_mb: float, adjust: bool = True):
    """Every end-to-end metric: times at the host's nominal speed, or as
    measured with adjust=False."""
    ops = [op for unit in units for op in unit]
    secs = (lambda op: op.adjusted_s) if adjust else (lambda op: op.wall_s)
    if workload.unit_is_operation:
        walls_ms = [sum(map(secs, unit)) * 1e3 for unit in units]
    else:
        walls_ms = [secs(op) * 1e3 for op in ops]
    q = tail_quantile(len(walls_ms))
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (
            statistics.median(
                sum(op.trials for op in unit) / sum(map(secs, unit))
                for unit in units
            ),
            "1/s",
        ),
        "ci_cost_s": (ci_cost_s(ops, workload.reference_rate, adjust), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cmd_ms_p50": (statistics.median(walls_ms), "ms"),
        "cmd_ms_tail": (quantile(walls_ms, q), "ms"),
    }
    detail = {
        "units": len(units),
        "operations": len(ops),
        "cmd_ms_tail_percentile": round(100 * q, 1),
        "cmd_ms_tail_samples": len(walls_ms),
    }
    return metrics, detail
