"""A command loads only what it runs.  Each subcommand of the sign,
forge, detect and verify-pof chain runs in a fresh interpreter, which
then reports the modules that got loaded: none loads ``pofsig.analysis``,
only ``forge`` loads ``pofsig.adversary``, and none loads ``dataclasses``,
``traceback``, ``typing`` or OpenSSL's ``hashlib`` unless a bare
interpreter already has it.  ``import pofsig`` alone loads no ``pofsig`` module.
Every child runs under ``-S``, so that what ``site`` imports (a ``.pth``
file may import ``typing``) never hides what ``pofsig`` loads."""

import ast
import os
import subprocess
import sys

import pytest

import pofsig

WATCHED = ("pofsig.analysis", "pofsig.adversary", "dataclasses", "traceback", "hashlib",
           "_hashlib", "typing")

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
    res = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
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


def test_no_command_loads_typing(loaded, bare):
    # annotations are never evaluated, so no module imports typing for them
    for name, (_, mods) in loaded.items():
        assert mods & {"typing"} <= bare, name


def test_importing_the_package_loads_no_submodule():
    # the modules are the API: the package root re-exports nothing
    out = _run("import sys, pofsig; print(sorted(m for m in sys.modules"
               " if m.startswith('pofsig.')))")
    assert out == "[]"
    with pytest.raises(AttributeError):
        pofsig.no_such_name
