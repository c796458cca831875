"""pofsig runs on the standard library alone: no command, experiment or
census loads numpy or scipy, nor a process pool (multiprocessing or
concurrent.futures).  The census's own binomial pmf and chi-square
survival function are checked here against scipy, a test-only dependency."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import pofsig
from pofsig.analysis import binom_pmf, chi2_sf, preimage_census

# Runs in a fresh interpreter: every subcommand through cli.main and the
# census, then the names of the numpy and scipy modules that got loaded,
# and those of the process-pool packages.
CHILD = """\
import contextlib, io, os, sys, tempfile
import pofsig
from pofsig import analysis, cli

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
census = analysis.preimage_census(8, 2, 30, 1)
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""


@pytest.fixture(scope="module")
def child_output():
    src = os.path.dirname(os.path.dirname(pofsig.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_cli_commands_load_neither_numpy_nor_scipy(child_output):
    codes, numerics, _ = child_output
    assert codes == "[0, 0, 0, 0, 0, 0, 0, 0, 0]"
    assert numerics == "[]"


def test_cli_commands_load_no_process_pool(child_output):
    _, _, pools = child_output
    assert pools == "[]"


def _scipy_census_gof(n, delta, instances, counts):
    """The census chi-square through scipy: pool N >= cut while that bin
    expects under 5, then N <= lo while that bin does."""
    m, p = 2 ** (n + delta) - 1, 2.0 ** -n
    cut = max(counts)
    while cut > 1 and instances * stats.binom.sf(cut - 2, m, p) < 5:
        cut -= 1
    lo = 1
    while lo < cut and instances * stats.binom.cdf(lo - 1, m, p) < 5:
        lo += 1
    assert lo < cut, "at least two bins"
    observed = [sum(c for N, c in counts.items() if N <= lo)]
    expected = [instances * stats.binom.cdf(lo - 1, m, p)]
    for N in range(lo + 1, cut):
        observed.append(counts.get(N, 0))
        expected.append(instances * stats.binom.pmf(N - 1, m, p))
    observed.append(sum(c for N, c in counts.items() if N >= cut))
    expected.append(instances * stats.binom.sf(cut - 2, m, p))
    expected = np.asarray(expected) * (sum(observed) / sum(expected))
    chi2, p_value = stats.chisquare(observed, expected)
    return float(chi2), float(p_value)


def test_census_chi_square_unchanged():
    # (8, 0) x 50 is the point whose scipy chi-square was pinned before
    # the stdlib code; (8, 2) x 100 pools the N = 1 bin, which expects 1.83.
    for n, delta, instances, seed in ((8, 0, 50, 3), (8, 0, 1200, 11),
                                      (8, 2, 100, 9), (8, 2, 300, 12)):
        c = preimage_census(n, delta, instances, seed)
        chi2, p_value = _scipy_census_gof(n, delta, instances, c.counts)
        assert math.isclose(c.chi2, chi2, rel_tol=1e-12), (n, delta, instances)
        assert math.isclose(c.p_value, p_value, rel_tol=1e-12), (n, delta, instances)


def test_chi2_sf_matches_scipy():
    for k in range(1, 61):
        for x in np.geomspace(1e-6, 2000.0, 120):
            ref = float(stats.chi2.sf(x, k))
            if ref > 1e-250:
                assert math.isclose(chi2_sf(float(x), k), ref, rel_tol=1e-12), (k, x)
    assert math.isnan(chi2_sf(3.0, 0))


def test_binom_pmf_matches_scipy_where_the_linear_start_underflows():
    for n, delta in ((4, 10), (6, 10), (8, 12)):
        m, p = 2 ** (n + delta) - 1, 2.0 ** -n
        mean, sd = m * p, math.sqrt(m * p)
        assert math.exp(m * math.log1p(-p)) == 0.0
        pmf = binom_pmf(m, p, int(mean + 5 * sd))
        for k in range(int(mean - 5 * sd), int(mean + 5 * sd)):
            assert math.isclose(pmf[k], stats.binom.pmf(k, m, p), rel_tol=1e-10), (m, k)
