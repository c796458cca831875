"""Check that the semantic tests can fail: every mutant of ``src/`` must
be killed by the tests named for it.

Usage::

    python tools/mutants.py

``MUTANTS`` is one table: a name, a module of ``src/pofsig``, an old text
that occurs exactly once in it, the new text that replaces it, and the
tests that must fail.  The tree is copied once to a temporary
directory, where the killers first run unchanged and must all pass.  Then
each mutant in turn is applied there, only its killers run, and its module
is restored.  A mutant survives when its killers all pass; a killer run
that ends in anything but a test failure (a missing test, a collection
error) is an error.  One line is printed per mutant, and the exit code is 1 if any
mutant survives or errs, else 0.  The frozen fingerprint
(``tests/test_fingerprint.py``) kills almost any change of behaviour, so
it is never a killer here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

VERDICT = 'verdict = "pass" if rate < bounds.upper + 3.0 * stderr else "fail"'
GIVEN_R_RATE = "rate = math.fsum(p_rs) / config.trials"

# (name, module, old text, new text, killers: pytest node ids)
MUTANTS = (
    ("verdict always pass", "analysis.py", VERDICT, 'verdict = "pass"',
     ("tests/test_analysis.py::TestVerdict",)),
    ("verdict against twice the upper bound", "analysis.py", VERDICT,
     VERDICT.replace("bounds.upper", "2 * bounds.upper"),
     ("tests/test_analysis.py::TestVerdict",)),
    ("reported CI with z = 1.64", "analysis.py",
     "ci_low=max(0.0, rate - 1.96 * stderr),", "ci_low=max(0.0, rate - 1.64 * stderr),",
     ("tests/test_analysis.py::TestConfidenceIntervals",)),
    ("exact-given-r rate doubled", "analysis.py", GIVEN_R_RATE,
     GIVEN_R_RATE.replace("rate =", "rate = 2 *"),
     ("tests/test_analysis.py::TestExactEstimator::"
      "test_estimate_agrees_with_the_monte_carlo_count",)),
    ("exact-given-r rate halved", "analysis.py", GIVEN_R_RATE,
     GIVEN_R_RATE.replace("rate =", "rate = 0.5 *"),
     ("tests/test_analysis.py::TestExactEstimator::"
      "test_estimate_agrees_with_the_monte_carlo_count",)),
    ("forge_wots takes the first member", "adversary.py",
     "v = _draw(_members(tops[b_star[i]], pk.pk[i]), pk.pk[i], rng)",
     "v = _members(tops[b_star[i]], pk.pk[i])[0]",
     ("tests/test_adversary.py::TestForgeWots::test_matches_the_reference_forger",)),
    ("census model with lambda doubled", "analysis.py",
     "binom_pmf(2 ** (n + delta) - 1, 2.0 ** -n, max_n - 1)",
     "binom_pmf(2 ** (n + delta) - 1, 2.0 ** (1 - n), max_n - 1)",
     ("tests/test_acceptance.py::test_criterion_6_preimage_count_model",
      "tests/test_analysis.py::TestCensus")),
    ("upper bound doubled", "analysis.py",
     "upper=math.ldexp(UPPER_BOUND_CONSTANT, -delta),",
     "upper=math.ldexp(UPPER_BOUND_CONSTANT, 1 - delta),",
     ("tests/test_analysis.py::TestBounds::test_upper_bound_delta4",
      "tests/test_cli.py::test_bounds_command")),
    ("g without its c_0 weight", "analysis.py",
     "math.fsum(k / cd[y] for y, k in c0.items())",
     "math.fsum(1 / cd[y] for y, k in c0.items())",
     ("tests/test_analysis.py::TestExactEstimator::"
      "test_match_probabilities_follow_their_definition",)),
    ("verify_pof2 accepts two equal signatures", "pof.py",
     "if E.sigma_tilde_star == E.sigma_star:", "if False:",
     ("tests/test_pof.py::TestPof2::test_identical_signatures_rejected",)),
    ("a tenth of detected trials counted undetected", "analysis.py",
     "if outcome.detected:\n                E = outcome.evidence",
     "if outcome.detected and t % 10:\n                E = outcome.evidence",
     ("tests/test_acceptance.py::test_criterion_1_lemma_bracket_delta0",
      "tests/test_acceptance.py::test_criterion_2_upper_bound_lamport",
      "tests/test_analysis.py::TestExperiment::test_lamport_bracket",
      "tests/test_analysis.py::TestScenario::test_scenario_runs_the_experiment_trial")),
    ("wots.verify takes a key of too few chains", "wots.py",
     "if len(sig.sigma) != params.l or len(pk.pk) != params.l:",
     "if len(sig.sigma) != params.l:",
     ("tests/test_pof.py::TestMalformedPublicKey",)),
)


def _copy_tree(dest: Path) -> Path:
    """This tree without its history and caches, at dest/tree."""
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".bench_build"))
    return tree


def _pytest(tree: Path, killers) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *killers],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="pofsig-mutants-") as tmp:
        tree = _copy_tree(Path(tmp))
        killers = list(dict.fromkeys(k for m in MUTANTS for k in m[4]))
        code = _pytest(tree, killers)
        if code != 0:
            print(f"error: the killers fail on the unchanged tree (pytest exit {code})")
            return 1
        for name, module, old, new, killers in MUTANTS:
            path = tree / "src" / "pofsig" / module
            text = path.read_text(encoding="utf-8")
            start = time.perf_counter()
            if text.count(old) != 1:
                result = f"error: old text occurs {text.count(old)} times"
            else:
                path.write_text(text.replace(old, new), encoding="utf-8")
                code = _pytest(tree, killers)
                path.write_text(text, encoding="utf-8")
                result = {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest exit {code}")
            bad += result != "killed"
            print(f"{result:<10} {time.perf_counter() - start:6.1f} s  {module}: {name}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
