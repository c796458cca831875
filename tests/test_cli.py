import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pofsig import cli, serial
from pofsig.adversary import build_lamport_preimage_index
from pofsig.core import LamportParams
from pofsig.oracle import apply_step
from reference import collision

PY = [sys.executable, "-m", "pofsig"]


def run(*args, cwd=None):
    return subprocess.run(
        PY + list(args), capture_output=True, text=True, cwd=cwd
    )


@pytest.fixture
def lam_keys(tmp_path):
    sk = tmp_path / "sk.txt"
    pk = tmp_path / "pk.txt"
    res = run(
        "keygen", "--scheme", "lamport", "--n", "8", "--delta", "4",
        "--seed", "c0ffee", "--sk-out", str(sk), "--pk-out", str(pk),
    )
    assert res.returncode == 0, res.stderr
    return sk, pk


@pytest.fixture
def wots_keys(tmp_path):
    sk = tmp_path / "wsk.txt"
    pk = tmp_path / "wpk.txt"
    res = run(
        "keygen", "--scheme", "wots", "--n", "6", "--delta", "1",
        "--L", "4", "--nu", "2",
        "--seed", "1234", "--sk-out", str(sk), "--pk-out", str(pk),
    )
    assert res.returncode == 0, res.stderr
    return sk, pk


def test_keygen_sign_verify_round_trip(tmp_path, lam_keys):
    sk, pk = lam_keys
    sig = tmp_path / "sig.txt"
    assert run("sign", "--sk", str(sk), "--message", "1", "--out", str(sig)).returncode == 0
    res = run("verify", "--pk", str(pk), "--sig", str(sig), "--message", "1")
    assert res.returncode == 0
    assert "valid" in res.stdout


def test_verify_wrong_message_exits_1(tmp_path, lam_keys):
    sk, pk = lam_keys
    sig = tmp_path / "sig.txt"
    run("sign", "--sk", str(sk), "--message", "1", "--out", str(sig))
    assert run("verify", "--pk", str(pk), "--sig", str(sig), "--message", "0").returncode == 1


def test_wots_round_trip(tmp_path, wots_keys):
    sk, pk = wots_keys
    sig = tmp_path / "sig.txt"
    assert run("sign", "--sk", str(sk), "--message", "d0", "--out", str(sig)).returncode == 0
    assert run("verify", "--pk", str(pk), "--sig", str(sig), "--message", "d0").returncode == 0
    assert run("verify", "--pk", str(pk), "--sig", str(sig), "--message", "a0").returncode == 1


def test_forge_detect_verify_pof_pipeline(tmp_path, lam_keys):
    sk, pk = lam_keys
    sig = tmp_path / "sig.txt"
    forged = tmp_path / "forged.txt"
    pof_file = tmp_path / "pof.txt"
    run("sign", "--sk", str(sk), "--message", "0", "--out", str(sig))
    res = run(
        "forge", "--pk", str(pk), "--known-message", "0", "--known-sig", str(sig),
        "--target-message", "1", "--max-domain-bits", "16",
        "--seed", "05", "--out", str(forged),
    )
    assert res.returncode == 0, res.stderr
    assert run("verify", "--pk", str(pk), "--sig", str(forged), "--message", "1").returncode == 0
    res = run(
        "detect", "--sk", str(sk), "--message", "1", "--sig", str(forged),
        "--pof-out", str(pof_file),
    )
    # fixture seed gives a detected forgery (checked here once and frozen)
    assert res.returncode == 0, res.stdout + res.stderr
    assert run("verify-pof", "--pof", str(pof_file)).returncode == 0
    # the evidence file shows two distinct secret halves with one image
    step, x, y = collision(serial.load_path(pof_file))
    assert x != y and apply_step(step, x) == apply_step(step, y)


def test_type_one_file_is_not_evidence(tmp_path):
    # this key's halves have one image, so its honest signature of bit 0
    # is "valid for both bits": a type-I file that shows no forgery
    sk, pk, sig = (str(tmp_path / f) for f in ("sk", "pk", "sig"))
    assert cli.main(["keygen", "--scheme", "lamport", "--n", "8", "--delta", "2",
                     "--seed", "1a0", "--sk-out", sk, "--pk-out", pk]) == 0
    assert cli.main(["sign", "--sk", sk, "--message", "0", "--out", sig]) == 0
    key = serial.load_path(pk)
    assert key.pk[0] == key.pk[1]
    sigma = serial.load_path(sig).signature.sigma[0]
    pof1 = tmp_path / "pof1"
    pof1.write_text(serial.dump_public_key(key).replace("kind: public-key", "kind: pof-1")
                    + f"m: 00\nm_star: 80\nsigma_star: {sigma.hex()}\n")
    res = run("verify-pof", "--pof", str(pof1))
    assert res.returncode == 2
    assert res.stderr == f"error: {pof1}: unknown kind 'pof-1'\n"


def test_every_kind_loads_accepts_is_written_by_a_command(tmp_path):
    # keygen, sign, forge and detect for both schemes write every kind
    for name, params, message, target in (
        ("lam", ["lamport", "--n", "8", "--delta", "4"], "0", "1"),
        ("wots", ["wots", "--n", "6", "--delta", "2", "--L", "4", "--nu", "2"], "d0", "20"),
    ):
        sk, pk, sig, forged, pof = (str(tmp_path / f"{name}.{k}")
                                    for k in ("sk", "pk", "sig", "forged", "pof"))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["keygen", "--scheme", *params, "--seed", "c0ffee",
                             "--sk-out", sk, "--pk-out", pk]) == 0
            assert cli.main(["sign", "--sk", sk, "--message", message, "--out", sig]) == 0
            assert cli.main(_forge_argv(pk, sig, message, target, forged)) == 0
            assert cli.main(["detect", "--sk", sk, "--message", target, "--sig", forged,
                             "--pof-out", pof]) == 0
    written = {path.read_text().split("\n")[1].removeprefix("kind: ")
               for path in tmp_path.iterdir()}
    assert written == set(serial.KINDS)


def test_detect_legitimate_signature_exits_4(tmp_path, lam_keys):
    sk, pk = lam_keys
    sig = tmp_path / "sig.txt"
    pof_file = tmp_path / "pof.txt"
    # the signer's own signature is what an exact-sk adversary would send
    run("sign", "--sk", str(sk), "--message", "1", "--out", str(sig))
    res = run(
        "detect", "--sk", str(sk), "--message", "1", "--sig", str(sig),
        "--pof-out", str(pof_file),
    )
    assert res.returncode == 4
    assert not pof_file.exists()


def test_detect_garbage_exits_1(tmp_path, lam_keys):
    sk, pk = lam_keys
    sig = tmp_path / "sig.txt"
    run("sign", "--sk", str(sk), "--message", "0", "--out", str(sig))
    # claim the signature is for the other bit: fails verification
    res = run(
        "detect", "--sk", str(sk), "--message", "1", "--sig", str(sig),
        "--pof-out", str(tmp_path / "pof.txt"),
    )
    assert res.returncode == 1


def test_usage_errors_exit_2(tmp_path):
    # wots without --L/--nu
    res = run(
        "keygen", "--scheme", "wots", "--n", "6", "--delta", "1",
        "--seed", "00", "--sk-out", str(tmp_path / "a"), "--pk-out", str(tmp_path / "b"),
    )
    assert res.returncode == 2
    # missing file
    assert run("verify-pof", "--pof", str(tmp_path / "nope.txt")).returncode == 2
    # budget over the hard cap
    assert run(
        "forge", "--pk", str(tmp_path / "x"), "--known-message", "0",
        "--known-sig", str(tmp_path / "y"), "--target-message", "1",
        "--max-domain-bits", "30", "--seed", "00", "--out", str(tmp_path / "z"),
    ).returncode == 2


def test_chain_index_above_u8_exits_2(tmp_path):
    res = run(
        "keygen", "--scheme", "wots", "--n", "4", "--delta", "0",
        "--L", "9", "--nu", "9", "--seed", "01",
        "--sk-out", str(tmp_path / "sk.txt"), "--pk-out", str(tmp_path / "pk.txt"),
    )
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_format_error_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("FDA-SIG v2\nkind: public-key\n")
    assert run("verify-pof", "--pof", str(bad)).returncode == 2


def test_outputs_reproducible(tmp_path):
    outs = []
    for tag in ("a", "b"):
        sk = tmp_path / f"sk-{tag}"
        pk = tmp_path / f"pk-{tag}"
        run(
            "keygen", "--scheme", "lamport", "--n", "8", "--delta", "2",
            "--seed", "deadbeef", "--sk-out", str(sk), "--pk-out", str(pk),
        )
        outs.append((sk.read_bytes(), pk.read_bytes()))
    assert outs[0] == outs[1]


def test_bounds_command():
    res = run("bounds", "--n", "8", "--delta", "4")
    assert res.returncode == 0
    assert "0.326" in res.stdout


def test_experiment_command(tmp_path):
    csv = tmp_path / "out.csv"
    res = run(
        "experiment", "--scheme", "lamport", "--n", "8", "--delta", "2",
        "--trials", "200", "--seed", "2a", "--csv", str(csv),
    )
    assert res.returncode == 0, res.stderr
    assert "verdict" in res.stdout
    lines = csv.read_text().strip().split("\n")
    assert lines[0].startswith("n,delta,trials")
    assert len(lines) == 2


def test_scenario_command():
    res = run(
        "scenario", "--scheme", "lamport", "--n", "8", "--delta", "6",
        "--adversary-mode", "exact-sk", "--seed", "07",
    )
    assert res.returncode == 0
    assert "outcome: undetectable" in res.stdout
    res = run(
        "scenario", "--scheme", "wots", "--n", "6", "--delta", "1",
        "--L", "4", "--nu", "2", "--adversary-mode", "fresh",
        "--notify-adversary", "--seed", "07",
    )
    assert res.returncode == 0
    assert "step 0" in res.stdout


# The tests below call cli.main in-process: same code path, no cold start.


def test_public_key_without_preimage_exits_2(tmp_path, capsys):
    pk_file = tmp_path / "pk"
    sk, pk, sig = str(tmp_path / "sk"), str(pk_file), str(tmp_path / "sig")
    assert cli.main(["keygen", "--scheme", "lamport", "--n", "8", "--delta", "0",
                     "--seed", "01", "--sk-out", sk, "--pk-out", pk]) == 0
    assert cli.main(["sign", "--sk", sk, "--message", "0", "--out", sig]) == 0
    # an 8-bit value outside the image of the 8-bit Lamport hash
    index = build_lamport_preimage_index(LamportParams(8, 0))
    orphan = next(v for v in range(256) if v not in index)
    lines = pk_file.read_text().splitlines()
    assert lines[-1].startswith("pk.1: ")
    lines[-1] = f"pk.1: {orphan:02x}"
    pk_file.write_text("\n".join(lines) + "\n")
    code = cli.main(["forge", "--pk", pk, "--known-message", "0", "--known-sig", sig,
                     "--target-message", "1", "--max-domain-bits", "16", "--seed", "05",
                     "--out", str(tmp_path / "forged")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "no preimage" in err and "Traceback" not in err


@pytest.mark.parametrize("seed", ["-1", "+1", "0x1", " 1", "1_0", "", "C0FFEE"])
@pytest.mark.parametrize("command", ["keygen", "experiment"])
def test_seed_other_than_lowercase_hex_digits_exits_2(tmp_path, capsys, seed, command):
    argv = [command, "--scheme", "lamport", "--n", "8", "--delta", "2", f"--seed={seed}"]
    if command == "keygen":
        argv += ["--sk-out", str(tmp_path / "sk"), "--pk-out", str(tmp_path / "pk")]
    else:
        argv += ["--trials", "5"]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "seed must be lowercase hex digits" in err and "Traceback" not in err
    assert not (tmp_path / "sk").exists()


def test_wots_message_with_non_zero_pad_bits_exits_2(tmp_path, wots_keys, capsys):
    # L = 4: one byte of hex, whose low four bits are pad bits
    sk, _ = wots_keys
    code = cli.main(["sign", "--sk", str(sk), "--message", "b1", "--out", str(tmp_path / "sig")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: pad bits beyond bit_len must be zero\n"
    assert not (tmp_path / "sig").exists()


def test_directory_as_file_exits_2(tmp_path, capsys):
    code = cli.main(["sign", "--sk", str(tmp_path), "--message", "0",
                     "--out", str(tmp_path / "sig")])
    assert code == cli.EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("bug in a command")

    monkeypatch.setattr(cli, "_cmd_bounds", broken)
    assert cli.main(["bounds", "--n", "8", "--delta", "4"]) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: bug in a command" in err


def test_cross_scheme_signature_is_invalid(tmp_path, lam_keys, wots_keys, capsys):
    lam_sk, lam_pk = lam_keys
    wots_sk, wots_pk = wots_keys
    sig = str(tmp_path / "wsig")
    assert cli.main(["sign", "--sk", str(wots_sk), "--message", "d0", "--out", sig]) == 0
    code = cli.main(["verify", "--pk", str(lam_pk), "--sig", sig, "--message", "1"])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().out.strip() == "invalid"
    # and a Lamport signature against the WOTS key
    sig = str(tmp_path / "lsig")
    assert cli.main(["sign", "--sk", str(lam_sk), "--message", "1", "--out", sig]) == 0
    code = cli.main(["verify", "--pk", str(wots_pk), "--sig", sig, "--message", "d0"])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().out.strip() == "invalid"


@pytest.mark.parametrize(
    "n,delta", [(8, 1100), (1100, 0), pytest.param(8, 10**400, id="8-10**400")])
def test_bounds_far_outside_float_range(n, delta, capsys):
    assert cli.main(["bounds", "--n", str(n), "--delta", str(delta)]) == 0
    out = capsys.readouterr().out
    assert "exact expectation" in out
    if delta > 1077:  # 5.22 * 2^-delta is below the smallest double
        assert "upper bound:       0\n" in out


def test_wots_experiment_wider_than_any_int_shift_is_refused(capsys):
    # depth 0 is 8 + 3 * 10**30 bits wide: refused as parameters, before any 1 << bits
    argv = ["experiment", "--scheme", "wots", "--n", "8", "--delta", str(10**30),
            "--L", "4", "--nu", "2", "--trials", "1", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and err.endswith("exceed the 65536-bit cap\n")


@pytest.mark.parametrize("params", [
    pytest.param(["--scheme", "lamport", "--n", "1" + "0" * 40, "--delta", "0"], id="lamport-n"),
    pytest.param(["--scheme", "wots", "--n", "8", "--delta", "1" + "0" * 40, "--L", "4",
                  "--nu", "2"], id="wots-delta"),
    pytest.param(["--scheme", "lamport", "--n", "8", "--delta", "40000000000"], id="lamport-delta"),
])
def test_value_wider_than_the_cap_is_refused_as_parameters(tmp_path, capsys, params):
    # refused from the parameters alone, never by a randomness source failing to draw
    argv = ["keygen", *params, "--seed", "1",
            "--sk-out", str(tmp_path / "sk"), "--pk-out", str(tmp_path / "pk")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("exceed the 65536-bit cap\n") and "randomness source" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["experiment", "keygen"])
def test_wots_key_of_more_than_2_to_the_28_hashes_is_refused(tmp_path, capsys, command):
    # l chains of w-1 steps, l ~ 5 * 10**29: refused before any chain is walked
    argv = [command, "--scheme", "wots", "--n", "8", "--delta", "1", "--L", str(10**30),
            "--nu", "2", "--seed", "1"]
    argv += (["--trials", "1"] if command == "experiment"
             else ["--sk-out", str(tmp_path / "sk"), "--pk-out", str(tmp_path / "pk")])
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and err.endswith("exceeds 2^28 hashes\n")
    assert not any(tmp_path.iterdir())


def _forge_argv(pk, sig, known, target, out):
    return ["forge", "--pk", str(pk), "--known-message", known, "--known-sig", str(sig),
            "--target-message", target, "--max-domain-bits", "16", "--seed", "05",
            "--out", str(out)]


def test_forge_from_cross_scheme_pair_exits_2(tmp_path, lam_keys, wots_keys, capsys):
    lam_sk, _ = lam_keys
    _, wots_pk = wots_keys
    sig = tmp_path / "sig"
    assert cli.main(["sign", "--sk", str(lam_sk), "--message", "0", "--out", str(sig)]) == 0
    capsys.readouterr()
    code = cli.main(_forge_argv(wots_pk, sig, "00", "10", tmp_path / "forged"))
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err == f"error: {sig}: does not verify for the known message\n"
    assert not (tmp_path / "forged").exists()


def test_forge_from_signature_of_another_message_exits_2(tmp_path, lam_keys, capsys):
    sk, pk = lam_keys
    sig = tmp_path / "sig"
    assert cli.main(["sign", "--sk", str(sk), "--message", "0", "--out", str(sig)]) == 0
    capsys.readouterr()
    code = cli.main(_forge_argv(pk, sig, "1", "0", tmp_path / "forged"))
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "forged").exists()


def test_file_of_the_wrong_kind_exits_2(tmp_path, lam_keys, capsys):
    sk, pk = lam_keys
    code = cli.main(["verify", "--pk", str(sk), "--sig", str(pk), "--message", "1"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {sk}: is a secret-key file, expected public-key\n")


@pytest.mark.parametrize("case", ["5000-digit delta", "not UTF-8"])
def test_unreadable_public_key_exits_2(tmp_path, lam_keys, capsys, case):
    sk, pk = lam_keys
    sig = str(tmp_path / "sig")
    assert cli.main(["sign", "--sk", str(sk), "--message", "1", "--out", sig]) == 0
    text = pk.read_text()
    if case == "not UTF-8":
        pk.write_bytes(b"\xff\xfe" + text.encode())
    else:
        pk.write_text(text.replace("delta: 4\n", f"delta: {'1' * 5000}\n"))
    capsys.readouterr()
    code = cli.main(["verify", "--pk", str(pk), "--sig", sig, "--message", "1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: {pk}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command,field", [
    pytest.param("sign", "invalid parameters", id="sign-sk.1"),
    ("verify", "invalid parameters"),
])
def test_file_with_thousand_digit_parameters_exits_2_on_one_short_line(
        tmp_path, wots_keys, capsys, command, field):
    # a 4200-digit delta makes sk.1 ~10^4200 bits wide, over the value cap;
    # a 4001-digit L is not a multiple of nu = 3: neither number is echoed
    sk, pk = wots_keys
    if command == "sign":
        sk.write_text(sk.read_text().replace("delta: 1\n", f"delta: {'1' * 4200}\n"))
        argv = ["sign", "--sk", str(sk), "--message", "d0", "--out", str(tmp_path / "sig")]
    else:
        text = pk.read_text().replace("L: 4\n", f"L: 1{'0' * 4000}\n")
        pk.write_text(text.replace("nu: 2\n", "nu: 3\n"))
        argv = ["verify", "--pk", str(pk), "--sig", str(tmp_path / "sig"), "--message", "d0"]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["4001-digit L", "5000-char seed", "lamport message", "wots message"])
def test_long_flag_value_exits_2_on_one_short_line(tmp_path, lam_keys, wots_keys, capsys, case):
    # pofsig's own error text is cut, whichever input it echoes
    out = str(tmp_path / "out")
    if case == "4001-digit L":
        argv = ["keygen", "--scheme", "wots", "--n", "4", "--delta", "1", "--L",
                "1" + "0" * 4000, "--nu", "3", "--seed", "01", "--sk-out", out, "--pk-out", out]
    elif case == "5000-char seed":
        argv = ["keygen", "--scheme", "lamport", "--n", "8", "--delta", "2",
                "--seed", "x" * 5000, "--sk-out", out, "--pk-out", out]
    else:
        sk = (lam_keys if case == "lamport message" else wots_keys)[0]
        argv = ["sign", "--sk", str(sk), "--message", "z" * 5000, "--out", out]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["5000-digit n", "3000-char path"])
def test_argparse_and_os_error_text_is_cut_too(tmp_path, capsys, case):
    # argparse's usage error and the OSError of a file name echo the
    # input as well; their text is cut as pofsig's own is
    out = str(tmp_path / "out")
    if case == "5000-digit n":
        argv = ["keygen", "--scheme", "lamport", "--n", "9" * 5000, "--delta", "2",
                "--seed", "01", "--sk-out", out, "--pk-out", out]
    else:
        argv = ["verify-pof", "--pof", str(tmp_path / ("p" * 3000))]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "error: " in err and max(map(len, err.splitlines())) < 300
    assert "Traceback" not in err


# Flags of each subcommand, and the values a generated vector draws for
# them: valid in a Lamport vector, valid in a WOTS vector, or invalid (or
# refused).  An empty valid pool leaves the flag out.  Sizes keep every
# search domain at most 12 bits wide, or so wide (40 bits and up) that
# the 28-bit budget refuses it before any hashing.
CLI_FLAGS = {
    "keygen": ("--scheme", "--n", "--delta", "--L", "--nu", "--seed", "--sk-out", "--pk-out"),
    "sign": ("--sk", "--message", "--out"),
    "verify": ("--pk", "--sig", "--message"),
    "forge": ("--pk", "--known-message", "--known-sig", "--target-message",
              "--max-domain-bits", "--seed", "--out"),
    "detect": ("--sk", "--message", "--sig", "--pof-out"),
    "verify-pof": ("--pof",),
    "experiment": ("--scheme", "--n", "--delta", "--L", "--nu", "--trials", "--seed", "--csv"),
    "scenario": ("--scheme", "--n", "--delta", "--L", "--nu", "--adversary-mode",
                 "--notify-adversary", "--seed"),
    "bounds": ("--n", "--delta"),
}
BAD_INPUTS = ("empty", "binary", "missing", ".", "lam.pof", "wots.pk", "lam.sk")
OUTPUTS = ("out/a", "out/b")
MESSAGES = (("0", "1"), ("d0", "50"), ("2", "0f", "zz", ""))
CLI_VALUES = {
    "--scheme": (("lamport",), ("wots",), ("rsa",)),
    "--n": (("1", "4", "6"), ("4", "6"), ("40", "0", "-1", "x", "1.5")),
    "--delta": (("0", "1", "2"), ("0", "1", "2"), ("50", "-1", "x")),
    "--L": ((), ("2", "4"), ("3", "0", "-2")),
    "--nu": ((), ("1", "2"), ("9", "0", "-1", "x")),
    "--trials": (("1", "3"), ("1", "3"), ("0", "-3", "x")),
    "--max-domain-bits": (("12", "28"), ("8", "28"), ("29", "0", "x", "4")),
    "--seed": (("01", "c0ffee"), ("01", "c0ffee"), ("-1", "0x1", "", "G")),
    "--adversary-mode": (("fresh", "exact-sk"), ("fresh", "exact-sk"), ("other",)),
    "--notify-adversary": ((None,), (None,), (None,)),
    "--message": MESSAGES, "--known-message": MESSAGES, "--target-message": MESSAGES,
    "--sk": (("lam.sk",), ("wots.sk",), BAD_INPUTS),
    "--pk": (("lam.pk",), ("wots.pk",), BAD_INPUTS),
    "--sig": (("lam.sig",), ("wots.sig",), BAD_INPUTS),
    "--known-sig": (("lam.sig",), ("wots.sig",), BAD_INPUTS),
    "--pof": (("lam.pof",), ("lam.pof",), BAD_INPUTS),
    **{flag: (OUTPUTS, OUTPUTS, ("out", "missing/x"))
       for flag in ("--sk-out", "--pk-out", "--out", "--pof-out", "--csv")},
}
PATH_FLAGS = ("--sk", "--pk", "--sig", "--known-sig", "--pof",
              "--sk-out", "--pk-out", "--out", "--pof-out", "--csv")


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A directory holding one valid file of each input kind, plus an
    empty file, a non-UTF-8 file and an output directory."""
    d = tmp_path_factory.mktemp("cli")
    for name, params, message in (
        ("lam", ["lamport", "--n", "8", "--delta", "2"], "1"),
        ("wots", ["wots", "--n", "4", "--delta", "1", "--L", "4", "--nu", "2"], "d0"),
    ):
        sk, pk, sig = (str(d / f"{name}.{k}") for k in ("sk", "pk", "sig"))
        assert cli.main(["keygen", "--scheme", *params, "--seed", "01",
                         "--sk-out", sk, "--pk-out", pk]) == 0
        assert cli.main(["sign", "--sk", sk, "--message", message, "--out", sig]) == 0
    forged = str(d / "forged")
    assert cli.main(_forge_argv(d / "lam.pk", d / "lam.sig", "1", "0", forged)) == 0
    assert cli.main(["detect", "--sk", str(d / "lam.sk"), "--message", "0", "--sig", forged,
                     "--pof-out", str(d / "lam.pof")]) == 0
    (d / "empty").write_text("")
    (d / "binary").write_bytes(b"\xff\xfe")
    (d / "out").mkdir()
    return d


@st.composite
def cli_vectors(draw):
    """A subcommand whose flags are each valid for one scheme, or now and
    then missing, duplicated or invalid; or an unknown subcommand or flag."""
    command = draw(st.sampled_from(sorted(CLI_FLAGS) + ["mystery"]))
    scheme = draw(st.sampled_from((0, 1)))  # Lamport, WOTS
    argv = [command]
    for flag in CLI_FLAGS.get(command, ()):
        roll = draw(st.integers(0, 19))  # 0 missing, 1 duplicated, 2 invalid
        pool = CLI_VALUES[flag][2 if roll == 2 else scheme]
        for _ in range(0 if roll == 0 or not pool else 1 + (roll == 1)):
            value = draw(st.sampled_from(pool))
            argv += [flag] if value is None else [flag, value]
    if draw(st.integers(0, 19)) == 0:
        argv += ["--bogus", "1"]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=cli_vectors())
def test_every_argument_vector_ends_in_a_documented_exit_code(cli_dir, argv):
    argv = [str(cli_dir / a) if flag in PATH_FLAGS else a for flag, a in zip([""] + argv, argv)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the vector
            code = exc.code
    assert code in (0, 1, 2, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
