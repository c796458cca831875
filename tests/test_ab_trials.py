"""``tools/ab_trials.py`` runs one tiny interleaved round of this tree
against itself and reports both sides and the wins."""

import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_tiny_round_of_this_tree_against_itself():
    argv = [sys.executable, str(ROOT / "tools" / "ab_trials.py"), str(ROOT), str(ROOT),
            "lamport-sweep", "1", "--sizes", '{"trials": 10, "deltas": [0, 2]}']
    t0 = time.perf_counter()
    res = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    assert res.returncode == 0, res.stderr
    a, b, summary = res.stdout.splitlines()
    for side, line in (("A", a), ("B", b)):
        assert re.fullmatch(rf"{side}: unit [\d.]+ ms \(IQR [\d.]+\.\.[\d.]+\), "
                            r"[\d.]+ trials/s \(IQR [\d.]+\.\.[\d.]+\)", line), line
    assert re.fullmatch(r"B/A median unit time [\d.]+; B faster in [01] of 1 rounds", summary)
    assert elapsed < 2.0


def test_the_cli_workload_is_refused():
    argv = [sys.executable, str(ROOT / "tools" / "ab_trials.py"), str(ROOT), str(ROOT),
            "cli-session", "1"]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and "not an in-process workload" in res.stderr
