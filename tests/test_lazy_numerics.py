"""numpy and scipy are loaded only by the census chi-square test and the
pmf-sum check, so the CLI and the experiments start without them."""

import os
import subprocess
import sys

import pofsig
from pofsig.analysis import preimage_census

# Runs in a fresh interpreter: every subcommand through cli.main, then
# the names of the numpy and scipy modules that got loaded.
CHILD = """\
import contextlib, io, os, sys, tempfile
import pofsig
from pofsig import cli

lam = ["--scheme", "lamport", "--n", "8", "--delta", "2"]
with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    sk, pk, sig, forged, pof = (os.path.join(d, f) for f in ("sk", "pk", "sig", "f", "pof"))
    codes = [cli.main(argv) for argv in (
        ["bounds", "--n", "8", "--delta", "4"],
        ["experiment", *lam, "--trials", "50", "--seed", "2a"],
        ["scenario", *lam, "--adversary-mode", "fresh", "--seed", "07"],
        ["keygen", *lam, "--seed", "c0ffee", "--sk-out", sk, "--pk-out", pk],
        ["sign", "--sk", sk, "--message", "0", "--out", sig],
        ["verify", "--pk", pk, "--sig", sig, "--message", "0"],
        ["forge", "--pk", pk, "--known-message", "0", "--known-sig", sig,
         "--target-message", "1", "--max-domain-bits", "16", "--seed", "05", "--out", forged],
        ["detect", "--sk", sk, "--message", "1", "--sig", forged, "--pof-out", pof],
        ["verify-pof", "--pof", pof],
    )]
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_cli_commands_load_neither_numpy_nor_scipy():
    src = os.path.dirname(os.path.dirname(pofsig.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    codes, loaded = res.stdout.splitlines()
    assert codes == "[0, 0, 0, 0, 0, 0, 0, 0, 0]"
    assert loaded == "[]"


def test_census_chi_square_unchanged():
    # scipy's binom and chisquare give these whether loaded at start-up or on first call
    c = preimage_census(8, 0, 50, 3)
    assert (c.chi2, c.p_value) == (0.24619191693860878, 0.8841788140443321)
