import itertools
import random

import pytest

from pofsig import wots
from pofsig.core import BitString, Signature, derive_wots_params
from pofsig.errors import DomainError

P = derive_wots_params(6, 1, 4, 2)  # w=4, l1=2, l2=2, l=4


def make_kp(seed=0, params=P):
    return wots.keygen(params, random.Random(seed))


class TestEncoding:
    def test_to_base_w(self):
        assert wots.to_base_w(BitString.from_int(0b1101, 4), P) == (3, 1)

    def test_to_base_w_binary(self):
        p = derive_wots_params(8, 0, 2, 1)
        assert wots.to_base_w(BitString.from_int(0b10, 2), p) == (1, 0)

    def test_to_base_w_zero(self):
        assert wots.to_base_w(BitString.from_int(0, 4), P) == (0, 0)

    def test_to_base_w_wrong_length(self):
        with pytest.raises(DomainError):
            wots.to_base_w(BitString.from_int(0b101, 3), P)

    def test_message_that_is_not_a_bit_string_refused(self):
        with pytest.raises(DomainError):
            wots.sign(make_kp(), "x")
        with pytest.raises(DomainError):
            wots.extend("x", P)

    def test_checksum_maximal_digits(self):
        assert wots.checksum((3, 3), P) == (0, (0, 0))

    def test_checksum_example(self):
        assert wots.checksum((3, 1), P) == (2, (0, 2))

    def test_checksum_binary(self):
        p = derive_wots_params(8, 0, 8, 1)  # w=2, l1=8, l2=4
        assert wots.checksum((0,) * 8, p) == (8, (1, 0, 0, 0))

    def test_extend(self):
        assert wots.extend(BitString.from_int(0b1101, 4), P) == (3, 1, 0, 2)

    def test_extend_zero_checksum(self):
        assert wots.extend(BitString.from_int(0b1111, 4), P) == (3, 3, 0, 0)

    def test_checksum_never_overflows(self):
        for nu in (1, 2):
            p = derive_wots_params(6, 1, 4 * nu, nu)
            for digits in itertools.product(range(p.w), repeat=p.l1):
                C, c = wots.checksum(digits, p)
                assert len(c) == p.l2
                assert sum(d * p.w ** (p.l2 - 1 - i) for i, d in enumerate(c)) == C

    def test_anti_monotone_somewhere(self):
        # any other message must force at least one extended digit down
        exts = [wots.extend(BitString.from_int(v, 4), P) for v in range(16)]
        for a, b in itertools.permutations(range(16), 2):
            assert any(eb < ea for ea, eb in zip(exts[a], exts[b]))


class TestScheme:
    def test_public_key_invariant(self):
        from pofsig.oracle import chain

        kp = make_kp()
        for sk_i, pk_i in zip(kp.sk, kp.pk):
            assert chain(P, kp.r, 0, P.w - 1, sk_i) == pk_i

    def test_delta_zero_lengths(self):
        p0 = derive_wots_params(8, 0, 4, 2)
        kp = make_kp(params=p0)
        assert all(s.bit_len == 8 for s in kp.sk)
        assert all(p.bit_len == 8 for p in kp.pk)

    def test_keygen_reproducible(self):
        assert make_kp(seed=9) == make_kp(seed=9)

    def test_sign_endpoints(self):
        kp = make_kp()
        # digits (3,3) with zero checksum: message chains fully walked,
        # checksum positions left at the secret value
        sig = wots.sign(kp, BitString.from_int(0b1111, 4))
        assert sig.sigma[0] == kp.pk[0]
        assert sig.sigma[1] == kp.pk[1]
        assert sig.sigma[2] == kp.sk[2]
        assert sig.sigma[3] == kp.sk[3]

    def test_sign_zero_message(self):
        kp = make_kp()
        sig = wots.sign(kp, BitString.from_int(0, 4))
        assert sig.sigma[0] == kp.sk[0]
        assert sig.sigma[1] == kp.sk[1]

    def test_sign_deterministic(self):
        kp = make_kp()
        M = BitString.from_int(0b0110, 4)
        assert wots.sign(kp, M) == wots.sign(kp, M)

    def test_signature_element_lengths(self):
        kp = make_kp()
        M = BitString.from_int(0b1001, 4)
        b = wots.extend(M, P)
        sig = wots.sign(kp, M)
        for b_i, s_i in zip(b, sig.sigma):
            assert s_i.bit_len == P.n + P.delta * (P.w - 1 - b_i)

    def test_correctness_exhaustive_small(self):
        kp = make_kp()
        pk = kp.public()
        for v in range(16):
            M = BitString.from_int(v, 4)
            assert wots.verify(pk, wots.sign(kp, M), M) == 1

    def test_wrong_message_rejected(self):
        kp = make_kp(seed=3)
        M = BitString.from_int(0b1101, 4)
        sig = wots.sign(kp, M)
        for v in range(16):
            M2 = BitString.from_int(v, 4)
            if M2 != M:
                assert wots.verify(kp.public(), sig, M2) == 0

    def test_tampered_element_rejected(self):
        rng = random.Random(2)
        kp = make_kp(seed=4)
        M = BitString.from_int(0b0110, 4)
        sig = wots.sign(kp, M)
        rejected = 0
        for _ in range(100):
            i = rng.randrange(P.l)
            elems = list(sig.sigma)
            x, k = elems[i], rng.randrange(elems[i].bit_len)
            elems[i] = BitString.from_int(x.to_int() ^ (1 << (x.bit_len - 1 - k)), x.bit_len)
            if wots.verify(kp.public(), Signature(tuple(elems)), M) == 0:
                rejected += 1
        assert rejected >= 99

    def test_structural_mismatch_verifies_zero(self):
        kp = make_kp()
        M = BitString.from_int(0b0011, 4)
        sig = wots.sign(kp, M)
        # wrong element count
        assert wots.verify(kp.public(), Signature(sig.sigma[:-1]), M) == 0
        # wrong message length
        assert wots.verify(kp.public(), sig, BitString.from_int(0b001, 3)) == 0
