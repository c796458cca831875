"""Print digests of pofsig's seeded outputs, to compare two source trees.

Usage::

    PYTHONPATH=<tree>/src python tools/behaviour_fingerprint.py

Without a ``pofsig`` on the path, it digests this tree's own ``src/``.

Each line is ``<name> <sha256 of the output>``; the last line digests
all of them.  Two trees behave bit-identically on these seeds when the
outputs match line for line.  Covered: CLI key, signature and evidence
files for both schemes (one Lamport forgery at a 16-bit domain, swept
in forked jobs), ``run_fda_experiment`` reports, ``preimage_census``
counts and chi-square, and ``run_scenario`` logs in both adversary modes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

if importlib.util.find_spec("pofsig") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pofsig import analysis, cli  # noqa: E402
from pofsig.core import LamportParams, derive_wots_params  # noqa: E402


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_files(scheme_args, msg, target, seed):
    """keygen, sign, forge, detect in a temp dir; return every file's text."""
    with tempfile.TemporaryDirectory() as d:
        p = {k: os.path.join(d, k) for k in ("sk", "pk", "sig", "forged", "pof")}
        argvs = [
            ["keygen", *scheme_args, "--seed", seed, "--sk-out", p["sk"], "--pk-out", p["pk"]],
            ["sign", "--sk", p["sk"], "--message", msg, "--out", p["sig"]],
            ["forge", "--pk", p["pk"], "--known-message", msg, "--known-sig", p["sig"],
             "--target-message", target, "--max-domain-bits", "20", "--seed", seed,
             "--out", p["forged"]],
            ["detect", "--sk", p["sk"], "--message", target, "--sig", p["forged"],
             "--pof-out", p["pof"]],
        ]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                codes.append(cli.main(argv))
        texts = [f"exit codes {codes}"]
        for k in ("sk", "pk", "sig", "forged", "pof"):
            if os.path.exists(p[k]):
                with open(p[k], encoding="utf-8") as fh:
                    texts.append(fh.read())
        return "\n".join(texts)


def outputs():
    lam = ["--scheme", "lamport", "--n", "8", "--delta", "6"]
    wots = ["--scheme", "wots", "--n", "6", "--delta", "2", "--L", "4", "--nu", "2"]
    for seed in ("c0ffee", "1", "2a"):
        yield f"cli.lamport.{seed}", _cli_files(lam, "0", "1", seed)
        yield f"cli.wots.{seed}", _cli_files(wots, "d0", "20", seed)
    # a 16-bit domain: the forgery's sweep runs in forked jobs
    lam16 = ["--scheme", "lamport", "--n", "8", "--delta", "8"]
    yield "cli.lamport.8.c0ffee", _cli_files(lam16, "1", "0", "c0ffee")
    lp, wp = LamportParams(8, 6), derive_wots_params(6, 2, 4, 2)
    for scheme, params, trials in (("lamport", lp, 3000), ("wots", wp, 60)):
        for seed in (0x2A, 7):
            cfg = analysis.ExperimentConfig(scheme, params, trials, seed)
            yield f"experiment.{scheme}.{seed}", repr(analysis.run_fda_experiment(cfg))
    # At (8,6) every image is hit, so |Im H| / 2^D is 2^-6 = E; at (8,0)
    # the one function's rate differs from E.
    for seed in (0x2A, 7):
        cfg = analysis.ExperimentConfig("lamport", LamportParams(8, 0), 3000, seed)
        yield f"experiment.lamport.0.{seed}", repr(analysis.run_fda_experiment(cfg))
    for n, delta, instances, seed in ((8, 0, 300, 2024), (8, 2, 100, 9)):
        c = analysis.preimage_census(n, delta, instances, seed)
        yield f"census.{n}.{delta}", repr((c.counts, c.mean, c.chi2, c.p_value))
    for params in (lp, LamportParams(8, 0), wp):
        for mode in ("fresh", "exact-sk"):
            for seed in range(6):
                log = analysis.run_scenario(params, seed, mode, notify_adversary=seed % 2)
                yield (f"scenario.{params.scheme}.{params.delta}.{mode}.{seed}",
                       analysis.scenario_text(log) + "\n" + repr(log))


def main() -> None:
    total = hashlib.sha256()
    for name, text in outputs():
        line = f"{name} {_digest(text)}"
        total.update(line.encode() + b"\n")
        print(line)
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
