"""A command loads only what it runs.  Each subcommand of the sign,
forge, detect and verify-pof chain runs in a fresh interpreter, which
then reports the modules that got loaded: none loads ``pofsig.analysis``,
only ``forge`` loads ``pofsig.adversary``, and none loads ``dataclasses``,
``traceback`` or OpenSSL's ``hashlib`` unless a bare interpreter already
has it."""

import ast
import os
import subprocess
import sys

import pytest

import pofsig

# The names ``pofsig`` re-exports, each with its home module.
EXPORTS = {
    "core": ("BitString", "KeyPair", "LamportParams", "PublicKey", "Signature", "WotsParams",
             "derive_wots_params"),
    "oracle": ("OracleTag", "Seed", "chain", "oracle_eval"),
    "pof": ("DetectionOutcome", "PofEvidenceII", "detect_forgery", "verify_pof2"),
    "adversary": ("ForgeryBudget", "PreimageSet", "enumerate_preimages", "forge_lamport",
                  "forge_wots"),
    "analysis": ("BoundsReport", "ExperimentConfig", "ExperimentReport", "ScenarioLog",
                 "fda_bounds", "preimage_census", "run_fda_experiment", "run_scenario"),
    "errors": ("BudgetExceeded", "DomainError", "EmptyPreimageSet", "EntropyError",
               "FormatError", "InvalidParams", "NotAValidSignature", "PofsigError"),
}

WATCHED = ("pofsig.analysis", "pofsig.adversary", "dataclasses", "traceback", "hashlib",
           "_hashlib")

# Runs one command as `python -m pofsig` would, then prints its exit code
# and which of the watched modules are loaded.
CHILD = """\
import sys
from pofsig import cli
code = cli.main(sys.argv[1:])
print(code, sorted(m for m in {watched!r} if m in sys.modules))
"""


def _env():
    src = os.path.dirname(os.path.dirname(pofsig.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run(code, *argv):
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, env=_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def bare():
    """The watched modules a bare interpreter has already loaded."""
    code = f"import sys; print([m for m in {WATCHED!r} if m in sys.modules])"
    return set(ast.literal_eval(_run(code)))


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Per command: its exit code and the watched modules it loaded."""
    d = tmp_path_factory.mktemp("chain")
    sk, pk, sig, forged, pof = (str(d / f) for f in ("sk", "pk", "sig", "forged", "pof"))
    commands = {
        "keygen": ["keygen", "--scheme", "lamport", "--n", "8", "--delta", "2",
                   "--seed", "c0ffee", "--sk-out", sk, "--pk-out", pk],
        "sign": ["sign", "--sk", sk, "--message", "0", "--out", sig],
        "verify": ["verify", "--pk", pk, "--sig", sig, "--message", "0"],
        "forge": ["forge", "--pk", pk, "--known-message", "0", "--known-sig", sig,
                  "--target-message", "1", "--max-domain-bits", "16", "--seed", "05",
                  "--out", forged],
        "detect": ["detect", "--sk", sk, "--message", "1", "--sig", forged, "--pof-out", pof],
        "verify-pof": ["verify-pof", "--pof", pof],
    }
    child = CHILD.format(watched=WATCHED)
    out = {}
    for name, argv in commands.items():
        code, _, modules = _run(child, *argv).partition(" ")
        out[name] = int(code), set(ast.literal_eval(modules))
    return out


def test_every_command_of_the_chain_succeeds(loaded):
    assert {name: code for name, (code, _) in loaded.items()} == dict.fromkeys(loaded, 0)


def test_no_command_of_the_chain_loads_the_experiments(loaded):
    assert [name for name, (_, mods) in loaded.items() if "pofsig.analysis" in mods] == []


def test_only_forge_loads_the_forger(loaded):
    assert [name for name, (_, mods) in loaded.items() if "pofsig.adversary" in mods] == [
        "forge"]


def test_no_command_loads_dataclasses_or_traceback(loaded, bare):
    for name, (_, mods) in loaded.items():
        assert mods & {"dataclasses", "traceback"} <= bare, name


def test_no_command_loads_openssl_hashlib(loaded, bare):
    # the oracle hashes with the interpreter's built-in SHA-256
    for name, (_, mods) in loaded.items():
        assert mods & {"hashlib", "_hashlib"} <= bare, name


def test_importing_the_package_loads_neither_forger_nor_experiments():
    out = _run("import sys, pofsig; print(sorted(m for m in sys.modules"
               " if m in ('pofsig.analysis', 'pofsig.adversary')))")
    assert out == "[]"


def test_every_re_exported_name_resolves_to_its_home_module():
    for module, names in EXPORTS.items():
        home = __import__(f"pofsig.{module}", fromlist=["_"])
        for name in names:
            assert getattr(pofsig, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        pofsig.no_such_name
