"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  All randomized criteria use frozen master seeds so
the whole suite is reproducible bit-exactly.
"""

import itertools
import random

import numpy as np

from pofsig import lamport, serial, wots
from pofsig.adversary import ForgeryBudget
from pofsig.analysis import (
    ExperimentConfig,
    preimage_census,
    run_fda_experiment,
    run_scenario,
)
from pofsig.core import BitString, LamportParams, Signature, derive_wots_params
from pofsig.errors import FormatError
from pofsig.pof import PofEvidenceII
from reference import (
    bound_constant,
    exact_expectation_by_summation,
    lamport_image_fraction,
    minimize_bound_constant,
    occupancy_sd,
)


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_lemma_bracket_delta0():
    # The band is on the 0/1 count: E is the mean over random functions,
    # while exact-given-H is one function's value (criterion 10).
    exact = exact_expectation_by_summation(10, 0)  # independent pmf-sum oracle
    cfg = ExperimentConfig("lamport", LamportParams(10, 0), 10_000, 12345)
    r = run_fda_experiment(cfg)
    mc, se = r.monte_carlo_rate, r.monte_carlo_stderr
    in_band = abs(mc - exact) <= 3 * se
    in_bracket = all(r.bounds.lower < rate < r.bounds.upper for rate in (mc, r.undetected_rate))
    _report(
        "1 Lamport delta=0 bracket",
        in_band and in_bracket,
        f"monte carlo={mc:.4f} exact={exact:.4f} 3se={3 * se:.4f} "
        f"exact-given-H={r.undetected_rate:.4f}",
    )


def test_criterion_2_upper_bound_lamport():
    details = []
    ok = True
    for delta in (2, 4, 6):
        cfg = ExperimentConfig("lamport", LamportParams(8, delta), 10_000, 12345)
        r = run_fda_experiment(cfg)
        # The 0/1 count: exact-given-H is |Im H| / 2^(n+delta), which meets
        # 2^-delta exactly, not below it, wherever H is onto (here delta 4, 6).
        rate, se = r.monte_carlo_rate, r.monte_carlo_stderr
        loose = rate < 5.22 * 2 ** -delta + 3 * se
        sharp = rate < 2 ** -delta + 3 * se
        ok = ok and loose and sharp
        details.append(f"d{delta}:{rate:.4f}")
    _report("2 Theorem-1 bound n=8", ok, " ".join(details))


def test_criterion_3_wots_end_to_end():
    params = derive_wots_params(6, 2, 4, 2)
    cfg = ExperimentConfig("wots", params, 1000, 12345)
    r = run_fda_experiment(cfg)
    # both the exact-given-r estimate and its Monte Carlo cross-check
    ok = r.evidence_ok_count == r.detected_count
    for rate, se in ((r.undetected_rate, r.stderr),
                     (r.monte_carlo_rate, r.monte_carlo_stderr)):
        ok = ok and rate < 5.22 * 2 ** -2 + 3 * se and rate < 2 ** -2 + 3 * se
    _report(
        "3 WOTS forge-then-detect",
        ok,
        f"rate={r.undetected_rate:.4f} monte carlo={r.monte_carlo_rate:.4f} "
        f"evidence {r.evidence_ok_count}/{r.detected_count}",
    )


def test_criterion_4_checksum_anti_monotonicity():
    ok = True
    for nu in (1, 2, 4):
        params = derive_wots_params(8, 1, 8, nu)
        ext = np.array(
            [wots.extend(BitString.from_int(v, 8), params) for v in range(256)]
        )
        # forged[j] < signed[j] somewhere, for every ordered pair
        decreases = (ext[None, :, :] < ext[:, None, :]).any(axis=2)
        np.fill_diagonal(decreases, True)
        ok = ok and bool(decreases.all())
    _report("4 checksum anti-monotonicity L=8", ok)


def test_criterion_5_bound_constant():
    k_min, value = minimize_bound_constant()
    ok = 5.21 <= value <= 5.22 and abs(k_min - 0.36) < 0.01
    near_paper = abs(bound_constant(0.36) - value) < 1e-3
    _report(
        "5 bound constant minimum",
        ok and near_paper,
        f"min {value:.5f} at k={k_min:.4f}",
    )


def test_criterion_6_preimage_count_model():
    details = []
    ok = True
    for delta in (0, 2):
        c = preimage_census(8, delta, 1000, seed=20240817)
        ok = ok and c.p_value > 0.01
        details.append(f"d{delta}: p={c.p_value:.3f}")
    _report("6 preimage-count chi-square", ok, " ".join(details))


def test_criterion_7_scheme_correctness_and_tamper():
    rng = random.Random(555)
    lp = LamportParams(16, 4)
    wp = derive_wots_params(16, 0, 16, 4)
    ok_correct = True
    wots_pairs = []
    for _ in range(1000):
        kp = lamport.keygen(lp, rng)
        m = rng.getrandbits(1)
        ok_correct &= lamport.verify(kp.public(), lamport.sign(kp, m), m) == 1
    for _ in range(1000):
        kw = wots.keygen(wp, rng)
        M = BitString.from_int(rng.getrandbits(16), 16)
        sig = wots.sign(kw, M)
        ok_correct &= wots.verify(kw.public(), sig, M) == 1
        wots_pairs.append((kw, M, sig))
    rejections = 0
    for _ in range(500):
        kp = lamport.keygen(lp, rng)
        m = rng.getrandbits(1)
        sig = lamport.sign(kp, m)
        (x,), k = sig.sigma, rng.randrange(lp.sk_bits)
        bad = Signature(
            (BitString.from_int(x.to_int() ^ (1 << (x.bit_len - 1 - k)), x.bit_len),))
        rejections += lamport.verify(kp.public(), bad, m) == 0
    for kw, M, sig in wots_pairs[:500]:
        i = rng.randrange(wp.l)
        elems = list(sig.sigma)
        x, k = elems[i], rng.randrange(elems[i].bit_len)
        elems[i] = BitString.from_int(x.to_int() ^ (1 << (x.bit_len - 1 - k)), x.bit_len)
        rejections += wots.verify(kw.public(), Signature(tuple(elems)), M) == 0
    _report(
        "7 correctness + tamper rejection",
        ok_correct and rejections >= 990,
        f"rejected {rejections}/1000 tampered",
    )


def test_criterion_8_exact_sk_scenario():
    undetectable = 0
    runs = 0
    for seed in range(20):
        log = run_scenario(LamportParams(8, 6), seed, "exact-sk")
        undetectable += log.outcome == "undetectable"
        runs += 1
    wp = derive_wots_params(6, 2, 4, 2)
    for seed in range(10):
        log = run_scenario(wp, seed, "exact-sk")
        undetectable += log.outcome == "undetectable"
        runs += 1
    _report("8 exact-sk always undetectable", undetectable == runs, f"{undetectable}/{runs}")


def _random_structures(count):
    rng = random.Random(31337)
    lp = LamportParams(8, 4)
    wp = derive_wots_params(6, 1, 4, 2)
    texts = []
    while len(texts) < count:
        kp = lamport.keygen(lp, rng)
        kw = wots.keygen(wp, rng)
        M = BitString.from_int(rng.getrandbits(4), 4)
        sig_l = lamport.sign(kp, 0)
        sig_w = wots.sign(kw, M)
        b = wots.extend(M, wp)
        other_w = Signature(
            tuple(
                BitString.from_int(rng.getrandbits(wp.value_bits(d)), wp.value_bits(d))
                for d in b
            )
        )
        other_l = Signature(
            (BitString.from_int(rng.getrandbits(lp.sk_bits), lp.sk_bits),)
        )
        texts += [
            serial.dump_secret_key(kp),
            serial.dump_public_key(kp.public()),
            serial.dump_signature(sig_l, 0, lp),
            serial.dump_pof2(PofEvidenceII(kp.public(), sig_l, other_l, 1)),
            serial.dump_secret_key(kw),
            serial.dump_public_key(kw.public()),
            serial.dump_signature(sig_w, M, wp),
            serial.dump_pof2(PofEvidenceII(kw.public(), sig_w, other_w, M)),
        ]
    return texts[:count]


def test_criterion_9_serialization():
    texts = _random_structures(1000)
    round_trips = 0
    for text in texts:
        obj = serial.loads(text)
        redone = {
            "secret-key": serial.dump_secret_key,
            "public-key": serial.dump_public_key,
            "pof-2": serial.dump_pof2,
        }
        kind = text.split("\n")[1].split(": ")[1]
        if kind == "signature":
            redo = serial.dump_signature(obj.signature, obj.message, obj.params)
        else:
            redo = redone[kind](obj)
        round_trips += redo == text
    base = texts[0]
    corrupt = [
        base.replace("FDA-SIG v1", "FDA-SIG v2", 1),
        base.replace("FDA-SIG v1", "NOPE", 1),
        base.replace("kind: secret-key", "kind: magic", 1),
        base.replace("scheme: lamport", "scheme: dsa", 1),
        base.replace("n: 8", "n: 8 ", 1),
        base.replace("n: 8", "n: eight", 1),
        base.replace("n: 8", "n: 08", 1),
        base.replace("delta: 4", "delta: -4", 1),
        base[:-1],
        base + "\n",
        base + "junk: ff\n",
        base.replace("\n", "\r\n", 1),
        "\n".join(base.split("\n")[:-3]) + "\n",
        "",
        "\n",
    ]
    lines = base.split("\n")
    name, value = lines[5].split(": ")
    for mutated in (
        value[:-2],            # truncated hex
        value[:-1],            # odd-length hex
        value.upper() if value.upper() != value else "ZZ",
        value + "00",          # too long
        "0x" + value,          # prefix junk
    ):
        bad_lines = list(lines)
        bad_lines[5] = f"{name}: {mutated}"
        corrupt.append("\n".join(bad_lines))
    rejected = 0
    for text in corrupt[:20]:
        try:
            serial.loads(text)
        except FormatError:
            rejected += 1
    _report(
        "9 serialization round-trip + rejection",
        round_trips == len(texts) and rejected == 20,
        f"{round_trips}/{len(texts)} round trips, {rejected}/20 rejected",
    )


def test_criterion_10_lamport_spread_between_functions():
    # exact-given-H is the rate of the one fixed H at (n, delta); over
    # random functions it spreads around E with the occupancy sd
    details = []
    ok = True
    for n in (8, 10, 12):
        params = LamportParams(n, 0)
        r = run_fda_experiment(ExperimentConfig("lamport", params, 1000, 12345))
        E, sd = r.bounds.exact_expectation, occupancy_sd(n, 0)
        z = (r.undetected_rate - E) / sd
        ok = ok and abs(z) <= 3 and r.undetected_rate == lamport_image_fraction(params)
        details.append(f"n{n}:{r.undetected_rate:.5f} E={E:.5f} z={z:+.2f}")
    _report("10 Lamport exact-given-H within 3 occupancy sd of E", ok, " ".join(details))
