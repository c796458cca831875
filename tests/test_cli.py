import subprocess
import sys

import pytest

from pofsig import cli
from pofsig.adversary import build_lamport_preimage_index
from pofsig.core import LamportParams

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
    orphan = next(bytes([v]) for v in range(256) if bytes([v]) not in index)
    lines = pk_file.read_text().splitlines()
    assert lines[-1].startswith("pk.1: ")
    lines[-1] = f"pk.1: {orphan.hex()}"
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
    _, lam_pk = lam_keys
    wots_sk, _ = wots_keys
    sig = str(tmp_path / "wsig")
    assert cli.main(["sign", "--sk", str(wots_sk), "--message", "d0", "--out", sig]) == 0
    code = cli.main(["verify", "--pk", str(lam_pk), "--sig", sig, "--message", "1"])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().out.strip() == "invalid"


@pytest.mark.parametrize("n,delta", [(8, 1100), (1100, 0)])
def test_bounds_far_outside_float_range(n, delta, capsys):
    assert cli.main(["bounds", "--n", str(n), "--delta", str(delta)]) == 0
    assert "exact expectation" in capsys.readouterr().out


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
