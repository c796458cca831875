"""Command-line front end.

Exit codes: 0 success/valid, 1 invalid signature or evidence,
2 usage/format/budget/file error (any PofsigError or OSError), 3 internal
error (an unexpected exception; its traceback goes to stderr), 4 forgery
undetectable.  Every randomized subcommand takes a mandatory --seed so
runs are replayable bit-exactly.
"""

from __future__ import annotations

import argparse
import random
import re
import sys

from . import pof, serial
from .core import BitString, LamportParams, derive_wots_params
from .errors import NotAValidSignature, PofsigError, one_short_line

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_UNDETECTABLE = 4


class UsageError(PofsigError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose error text is cut as pofsig's own is;
    add_subparsers builds the subcommands' parsers with this class too."""

    def error(self, message):
        super().error(one_short_line(message))


def _parse_seed(text: str) -> int:
    """Lowercase hex digits only, so that one seed string means one run
    (int(text, 16) alone also takes signs, spaces, '0x' and '_')."""
    if not re.fullmatch("[0-9a-f]+", text):
        raise UsageError(f"seed must be lowercase hex digits, got {text!r}")
    return int(text, 16)


def _build_params(args):
    if args.scheme == "lamport":
        if args.L is not None or args.nu is not None:
            raise UsageError("--L/--nu are only valid for --scheme wots")
        return LamportParams(args.n, args.delta)
    if args.L is None or args.nu is None:
        raise UsageError("--scheme wots requires --L and --nu")
    return derive_wots_params(args.n, args.delta, args.L, args.nu)


def _parse_message(text: str, params):
    if params.scheme == "lamport":
        if text not in ("0", "1"):
            raise UsageError(f"lamport message must be the bit 0 or 1, got {text!r}")
        return int(text)
    nbytes = (params.L + 7) // 8
    try:
        payload = bytes.fromhex(text)
    except ValueError:
        raise UsageError(f"message must be hex, got {text!r}")
    if len(payload) != nbytes:
        raise UsageError(
            f"message must encode exactly {params.L} bits ({nbytes} bytes of hex)"
        )
    return BitString(params.L, payload)  # refuses non-zero pad bits


def _cmd_keygen(args) -> int:
    params = _build_params(args)
    kp = pof.SCHEMES[params.scheme].keygen(params, random.Random(_parse_seed(args.seed)))
    serial.dump_path(args.sk_out, serial.dump_secret_key(kp))
    serial.dump_path(args.pk_out, serial.dump_public_key(kp.public()))
    return EXIT_OK


def _cmd_sign(args) -> int:
    kp = serial.load_path(args.sk, ("secret-key",))
    message = _parse_message(args.message, kp.params)
    print(
        "warning: one-time key; never sign a second message with this key",
        file=sys.stderr,
    )
    sig = pof.SCHEMES[kp.params.scheme].sign(kp, message)
    serial.dump_path(args.out, serial.dump_signature(sig, message, kp.params))
    return EXIT_OK


def _cmd_verify(args) -> int:
    pk = serial.load_path(args.pk, ("public-key",))
    sig_file = serial.load_path(args.sig, ("signature",))
    message = _parse_message(args.message, pk.params)
    ok = pof.scheme_verify(pk, sig_file.signature, message)
    print("valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_INVALID


def _cmd_forge(args) -> int:
    pk = serial.load_path(args.pk, ("public-key",))
    known_sig = serial.load_path(args.known_sig, ("signature",)).signature
    known_m = _parse_message(args.known_message, pk.params)
    m_star = _parse_message(args.target_message, pk.params)
    if not pof.scheme_verify(pk, known_sig, known_m):
        raise UsageError(f"{args.known_sig}: does not verify for the known message")
    from .adversary import ForgeryBudget, forge

    budget = ForgeryBudget(args.max_domain_bits)
    forged = forge(pk, known_m, known_sig, m_star, budget, random.Random(_parse_seed(args.seed)))
    serial.dump_path(args.out, serial.dump_signature(forged, m_star, pk.params))
    return EXIT_OK


def _cmd_detect(args) -> int:
    kp = serial.load_path(args.sk, ("secret-key",))
    sig_file = serial.load_path(args.sig, ("signature",))
    message = _parse_message(args.message, kp.params)
    try:
        outcome = pof.detect_forgery(kp, message, sig_file.signature)
    except NotAValidSignature as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not outcome.detected:
        print("undetectable: forged signature equals the legitimate one")
        return EXIT_UNDETECTABLE
    serial.dump_path(args.pof_out, serial.dump_pof2(outcome.evidence))
    print(f"evidence written to {args.pof_out}")
    return EXIT_OK


def _cmd_verify_pof(args) -> int:
    ok = pof.verify_pof2(serial.load_path(args.pof, ("pof-2",)))
    print("valid evidence" if ok else "invalid evidence")
    return EXIT_OK if ok else EXIT_INVALID


def _cmd_experiment(args) -> int:
    from . import analysis

    params = _build_params(args)
    config = analysis.ExperimentConfig(
        scheme=args.scheme,
        params=params,
        trials=args.trials,
        master_seed=_parse_seed(args.seed),
    )
    report = analysis.run_fda_experiment(config)
    print(analysis.report_text(report))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(analysis.CSV_HEADER + "\n" + analysis.csv_row(report) + "\n")
    return EXIT_OK


def _cmd_scenario(args) -> int:
    from . import analysis

    params = _build_params(args)
    log = analysis.run_scenario(
        params,
        _parse_seed(args.seed),
        adversary_mode=args.adversary_mode,
        notify_adversary=args.notify_adversary,
    )
    print(analysis.scenario_text(log))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from . import analysis

    b = analysis.fda_bounds(args.n, args.delta)
    print(f"n:                 {b.n}")
    print(f"delta:             {b.delta}")
    print(f"lower bound:       {b.lower:.6g}")
    print(f"upper bound:       {b.upper:.6g}")
    print(f"exact expectation: {b.exact_expectation:.6g}")
    return EXIT_OK


def _add_scheme_params(sub):
    sub.add_argument("--scheme", required=True, choices=("lamport", "wots"))
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--delta", type=int, required=True)
    sub.add_argument("--L", type=int, default=None)
    sub.add_argument("--nu", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pofsig",
        description="One-time hash-based signatures with proof-of-forgery evidence",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("keygen", help="generate a key pair")
    _add_scheme_params(s)
    s.add_argument("--seed", required=True)
    s.add_argument("--sk-out", required=True)
    s.add_argument("--pk-out", required=True)
    s.set_defaults(fn=_cmd_keygen)

    s = subs.add_parser("sign", help="sign a message")
    s.add_argument("--sk", required=True)
    s.add_argument("--message", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_sign)

    s = subs.add_parser("verify", help="verify a signature")
    s.add_argument("--pk", required=True)
    s.add_argument("--sig", required=True)
    s.add_argument("--message", required=True)
    s.set_defaults(fn=_cmd_verify)

    s = subs.add_parser("forge", help="exhaustively forge a signature at toy sizes")
    s.add_argument("--pk", required=True)
    s.add_argument("--known-message", required=True)
    s.add_argument("--known-sig", required=True)
    s.add_argument("--target-message", required=True)
    s.add_argument("--max-domain-bits", type=int, required=True)
    s.add_argument("--seed", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_forge)

    s = subs.add_parser("detect", help="re-sign and compare to build evidence")
    s.add_argument("--sk", required=True)
    s.add_argument("--message", required=True)
    s.add_argument("--sig", required=True)
    s.add_argument("--pof-out", required=True)
    s.set_defaults(fn=_cmd_detect)

    s = subs.add_parser("verify-pof", help="verify an evidence file")
    s.add_argument("--pof", required=True)
    s.set_defaults(fn=_cmd_verify_pof)

    s = subs.add_parser("experiment", help="Monte Carlo forgery-detection run")
    _add_scheme_params(s)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", required=True)
    s.add_argument("--csv", default=None)
    s.set_defaults(fn=_cmd_experiment)

    s = subs.add_parser("scenario", help="replay the three-party scenario")
    _add_scheme_params(s)
    s.add_argument(
        "--adversary-mode", required=True, choices=("fresh", "exact-sk")
    )
    s.add_argument("--notify-adversary", action="store_true")
    s.add_argument("--seed", required=True)
    s.set_defaults(fn=_cmd_scenario)

    s = subs.add_parser("bounds", help="print analytic detection bounds")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--delta", type=int, required=True)
    s.set_defaults(fn=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PofsigError, OSError) as exc:
        print(f"error: {one_short_line(str(exc))}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
