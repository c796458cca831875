import random

import pytest

from pofsig import lamport, wots
from pofsig.adversary import ForgeryBudget, forge_lamport, forge_wots
from pofsig.analysis import run_scenario
from pofsig.core import (
    BitString, KeyPair, LamportParams, PublicKey, Signature, derive_wots_params,
)
from pofsig.errors import NotAValidSignature
from pofsig.oracle import apply_step, chain
from pofsig.pof import SCHEMES, PofEvidenceII, detect_forgery, scheme_verify, verify_pof2
from reference import collision

LP = LamportParams(8, 4)
WP = derive_wots_params(6, 1, 4, 2)
BUDGET = ForgeryBudget()


def lamport_kp(seed=0, params=LP):
    return lamport.keygen(params, random.Random(seed))


class TestPof2:
    def _evidence(self):
        kp = lamport_kp(seed=5)
        rng = random.Random(99)
        M = 0
        sigma = lamport.sign(kp, M)
        forged = forge_lamport(kp.public(), M, sigma, 1, BUDGET, rng)
        outcome = detect_forgery(kp, 1, forged)
        assert outcome.detected  # seed chosen so detection succeeds
        return kp, outcome.evidence

    def test_detection_evidence_verifies(self):
        _, E = self._evidence()
        assert verify_pof2(E) == 1

    def test_identical_signatures_rejected(self):
        kp, E = self._evidence()
        same = PofEvidenceII(E.pk, E.sigma_star, E.sigma_star, E.M_star)
        assert verify_pof2(same) == 0

    def test_tampered_pk_rejected(self):
        kp, E = self._evidence()
        # tamper the half that M_star = 1 actually selects
        pk0, pk1 = E.pk.pk
        bad_pk = PublicKey(E.pk.params, None, (
            pk0, BitString.from_int(pk1.to_int() ^ (1 << (pk1.bit_len - 1)), pk1.bit_len),
        ))
        tampered = PofEvidenceII(bad_pk, E.sigma_tilde_star, E.sigma_star, E.M_star)
        assert verify_pof2(tampered) == 0

    def test_only_evidence_is_evidence(self):
        # its fields as a bare tuple, or its public key alone, verify as 0
        _, E = self._evidence()
        for other in (None, (E.pk, E.sigma_tilde_star, E.sigma_star, E.M_star), E.pk):
            assert verify_pof2(other) == 0, other

    def test_third_party_needs_only_evidence(self):
        # the evidence carries the public key; verification never touches sk
        _, E = self._evidence()
        assert E.pk is not None
        assert verify_pof2(E) == 1


class TestDetectForgery:
    def test_fresh_preimage_gives_evidence(self):
        kp, E = TestPof2()._evidence()
        assert isinstance(E, PofEvidenceII)

    def test_exact_signature_undetectable(self):
        kp = lamport_kp(seed=1)
        legit = lamport.sign(kp, 1)
        outcome = detect_forgery(kp, 1, legit)
        assert not outcome.detected
        assert outcome.evidence is None

    def test_garbage_raises(self):
        kp = lamport_kp(seed=2)
        garbage = Signature((BitString.from_int(0, LP.sk_bits),))
        with pytest.raises(NotAValidSignature):
            detect_forgery(kp, 1, garbage)

    def test_wots_end_to_end(self):
        rng = random.Random(17)
        kp = wots.keygen(WP, rng)
        M = BitString.from_int(0b1101, 4)
        M_star = BitString.from_int(0b0110, 4)
        sigma = wots.sign(kp, M)
        forged = forge_wots(kp.public(), M, sigma, M_star, BUDGET, rng)
        outcome = detect_forgery(kp, M_star, forged)
        if outcome.detected:
            assert verify_pof2(outcome.evidence) == 1
        else:
            assert forged == wots.sign(kp, M_star)

    def test_soundness_of_every_evidence(self):
        rng = random.Random(23)
        for trial in range(20):
            kp = lamport.keygen(LP, rng)
            M = rng.getrandbits(1)
            sigma = lamport.sign(kp, M)
            forged = forge_lamport(kp.public(), M, sigma, 1 - M, BUDGET, rng)
            outcome = detect_forgery(kp, 1 - M, forged)
            if outcome.detected:
                assert verify_pof2(outcome.evidence) == 1


def assert_collision(E):
    """E shows a collision of the oracle: two distinct inputs of one step
    with one image."""
    step, x, y = collision(E)
    assert x != y and apply_step(step, x) == apply_step(step, y)


@pytest.mark.parametrize("params", [LamportParams(8, 6), LamportParams(8, 0),
                                    derive_wots_params(6, 2, 4, 2)], ids=repr)
def test_every_delivered_evidence_shows_a_collision(params):
    # the points and seeds of the scenario logs the behaviour fingerprint digests
    delivered = 0
    for seed in range(6):
        log = run_scenario(params, seed, "fresh")
        if log.outcome == "evidence-delivered":
            assert_collision(log.evidence)
            delivered += 1
    assert delivered


class TestSchemeVerify:
    def _signed(self):
        lkp = lamport_kp(seed=3)
        wkp = wots.keygen(WP, random.Random(4))
        M_w = BitString.from_int(0b1011, 4)
        return {
            "lamport": (lkp.public(), lamport.sign(lkp, 1), 1),
            "wots": (wkp.public(), wots.sign(wkp, M_w), M_w),
        }

    def test_own_scheme_verifies(self):
        for pk, sig, M in self._signed().values():
            assert scheme_verify(pk, sig, M) == 1

    def test_every_cross_scheme_pair_is_zero(self):
        # one Signature class serves both schemes: each verifier refuses the
        # other's shape, a 1-tuple against l chains and l values against one half
        signed = self._signed()
        for pk_scheme, (pk, _, _) in signed.items():
            for sig_scheme, (_, sig, _) in signed.items():
                for msg_scheme, (_, _, M) in signed.items():
                    if pk_scheme == sig_scheme == msg_scheme:
                        continue
                    case = (pk_scheme, sig_scheme, msg_scheme)
                    assert scheme_verify(pk, sig, M) == 0, case

    def test_verifier_bug_propagates(self, monkeypatch):
        pk, sig, M = self._signed()["lamport"]

        def broken(*args):
            raise RuntimeError("verifier bug")

        monkeypatch.setattr(lamport, "verify", broken)
        with pytest.raises(RuntimeError):
            scheme_verify(pk, sig, M)

    def test_non_signature_is_zero(self):
        # a bare tuple of values is not a Signature, even of the right shape
        pk, sig, M = self._signed()["lamport"]
        assert scheme_verify(pk, sig.sigma, M) == 0
        assert scheme_verify(pk, sig.sigma[0], M) == 0

    def test_detect_refuses_the_other_schemes_signature(self):
        lkp = lamport_kp(seed=3)
        wkp = wots.keygen(WP, random.Random(4))
        M_w = BitString.from_int(0b1011, 4)
        with pytest.raises(NotAValidSignature):
            detect_forgery(wkp, M_w, lamport.sign(lkp, 1))
        with pytest.raises(NotAValidSignature):
            detect_forgery(lkp, 1, wots.sign(wkp, M_w))


# Signatures that are not a Signature holding a tuple of BitStrings: a
# library caller can build them, though serial.loads never does.  The WOTS
# tuples hold the key's l values, so they fail on the values, not the count.
MALFORMED = {
    "lamport str": ("lamport", Signature(("x",))),
    "lamport None": ("lamport", Signature(None)),
    "lamport bare tuple": ("lamport", (BitString.from_int(0, LP.sk_bits),)),
    "wots ints": ("wots", Signature((1, 2, 3, 4))),
    "wots Nones": ("wots", Signature((None,) * WP.l)),
    "wots None": ("wots", Signature(None)),
}

# Messages that are not the scheme's: not the bit 0 or 1 for Lamport, not
# an L-bit BitString for WOTS.
WRONG_MESSAGES = {
    "lamport str": ("lamport", "0"),
    "lamport 2": ("lamport", 2),
    "lamport float": ("lamport", 1.0),
    "wots str": ("wots", "x"),
    "wots 3 bits": ("wots", BitString.from_int(0b101, 3)),
}


class TestMalformedSignature:
    def _key(self, scheme):
        if scheme == "lamport":
            kp = lamport_kp(seed=3)
            return kp, 1, lamport.sign(kp, 1)
        kp = wots.keygen(WP, random.Random(4))
        M = BitString.from_int(0b1011, 4)
        return kp, M, wots.sign(kp, M)

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_counts_as_invalid_everywhere(self, case):
        scheme, bad = MALFORMED[case]
        # the right length, the wrong values
        assert scheme != "wots" or bad.sigma is None or len(bad.sigma) == WP.l
        kp, M, good = self._key(scheme)
        pk = kp.public()
        assert SCHEMES[scheme].verify(pk, bad, M) == 0
        assert scheme_verify(pk, bad, M) == 0
        with pytest.raises(NotAValidSignature):
            detect_forgery(kp, M, bad)
        assert verify_pof2(PofEvidenceII(pk, good, bad, M)) == 0
        assert verify_pof2(PofEvidenceII(pk, bad, good, M)) == 0

    @pytest.mark.parametrize("case", list(WRONG_MESSAGES))
    def test_wrong_message_counts_as_invalid_everywhere(self, case):
        scheme, M = WRONG_MESSAGES[case]
        kp, _, good = self._key(scheme)
        pk = kp.public()
        assert SCHEMES[scheme].verify(pk, good, M) == 0
        assert scheme_verify(pk, good, M) == 0
        with pytest.raises(NotAValidSignature):
            detect_forgery(kp, M, good)
        other = Signature(tuple(BitString(v.bit_len, bytes(len(v.payload))) for v in good.sigma))
        assert verify_pof2(PofEvidenceII(pk, good, other, M)) == 0


def _malformed_keys():
    """(name, scheme, the key's public fields) of public keys that a library
    caller can build and serial.loads never does."""
    lkp, wkp = lamport_kp(seed=3), wots.keygen(WP, random.Random(4))
    return {
        "lamport no values": ("lamport", (LP, None, None)),
        "lamport no params": ("lamport", (None, None, lkp.pk)),
        "lamport one half": ("lamport", (LP, None, lkp.pk[:1])),
        "lamport zero halves": ("lamport", (LP, None, ())),
        "lamport int halves": ("lamport", (LP, None, (0, 1))),
        "lamport 7-bit unused half": (
            "lamport", (LP, None, (BitString.from_int(0, 7), lkp.pk[1]))),
        "wots no values": ("wots", (WP, wkp.r, None)),
        "wots no params": ("wots", (None, wkp.r, wkp.pk)),
        "wots one chain short": ("wots", (WP, wkp.r, wkp.pk[:-1])),
        "wots zero chains": ("wots", (WP, wkp.r, ())),
        "wots str seed": ("wots", (WP, "seed", wkp.pk)),
        # seeds of the wrong shape, with the key's values made under them
        "lamport with a seed": ("lamport", (LP, b"0123456789abcdef", lkp.pk)),
        "wots 3-byte seed": (
            "wots", (WP, b"abc", tuple(chain(WP, b"abc", 0, WP.w - 1, s) for s in wkp.sk))),
    }


class TestMalformedPublicKey:
    @pytest.mark.parametrize("case", list(_malformed_keys()))
    def test_counts_as_invalid_everywhere(self, case):
        scheme, (params, r, pk_values) = _malformed_keys()[case]
        kp, M, good = TestMalformedSignature()._key(scheme)
        if isinstance(r, bytes):  # signed under the case's own seed
            good = SCHEMES[scheme].sign(KeyPair(kp.params, r, kp.sk, kp.pk), M)
        pk = PublicKey(params, r, pk_values)
        assert scheme_verify(pk, good, M) == 0
        forged = KeyPair(params, r, kp.sk, pk_values)
        with pytest.raises(NotAValidSignature):
            detect_forgery(forged, M, good)
        other = Signature(tuple(BitString(v.bit_len, bytes(len(v.payload))) for v in good.sigma))
        assert verify_pof2(PofEvidenceII(pk, good, other, M)) == 0
        assert verify_pof2(PofEvidenceII(pk, other, good, M)) == 0
        # the scheme's own verify checks the key it is given
        assert SCHEMES[scheme].verify(pk, good, M) == 0

    @pytest.mark.parametrize("case", ["None", "bare tuple", "str params", "other scheme's params"])
    @pytest.mark.parametrize("scheme", ["lamport", "wots"])
    def test_the_schemes_own_verify_takes_any_key(self, scheme, case):
        # called directly, without scheme_verify's gate: anything but a
        # PublicKey of the scheme's own parameter class is 0, not an error
        kp, M, good = TestMalformedSignature()._key(scheme)
        pk = {"None": None, "bare tuple": (kp.params, kp.r, kp.pk),
              "str params": PublicKey(scheme, kp.r, kp.pk),
              "other scheme's params": PublicKey(WP if scheme == "lamport" else LP, kp.r, kp.pk),
              }[case]
        assert SCHEMES[scheme].verify(pk, good, M) == 0

    def test_the_wellformed_key_passes_the_same_checks(self):
        # the cases above fail on the key alone: the same signature verifies
        # under the key it was made with
        for scheme in ("lamport", "wots"):
            kp, M, good = TestMalformedSignature()._key(scheme)
            assert scheme_verify(kp.public(), good, M) == 1
