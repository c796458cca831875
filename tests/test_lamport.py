import random

import pytest

from pofsig import lamport
from pofsig.core import BitString, LamportParams, Signature
from pofsig.errors import DomainError, EntropyError

P = LamportParams(16, 4)


def make_kp(seed=0, params=P):
    return lamport.keygen(params, random.Random(seed))


def test_correctness_both_bits():
    kp = make_kp()
    pk = kp.public()
    for m in (0, 1):
        assert lamport.verify(pk, lamport.sign(kp, m), m) == 1


def test_sign_reveals_matching_half():
    kp = make_kp()
    assert lamport.sign(kp, 0).sigma == (kp.sk[0],)
    assert lamport.sign(kp, 1).sigma == (kp.sk[1],)


def test_sign_deterministic():
    kp = make_kp()
    assert lamport.sign(kp, 1) == lamport.sign(kp, 1)


def test_keygen_reproducible():
    assert make_kp(seed=42) == make_kp(seed=42)


def test_keygen_distinct_across_draws():
    seen = set()
    rng = random.Random(5)
    for _ in range(100):
        kp = lamport.keygen(P, rng)
        seen.add((kp.sk[0].payload, kp.sk[1].payload))
    assert len(seen) == 100


def test_public_key_invariant():
    kp = make_kp()
    assert kp.pk[0] == lamport.hash_secret(P, kp.sk[0])
    assert kp.pk[1] == lamport.hash_secret(P, kp.sk[1])


def test_length_split_is_delta():
    kp = make_kp()
    assert kp.sk[0].bit_len - kp.pk[0].bit_len == P.delta
    assert kp.sk[1].bit_len - kp.pk[1].bit_len == P.delta


def test_cross_bit_rejected():
    # wrong-bit acceptance needs an oracle collision (prob ~2^-n); this
    # fixed instance has none
    kp = make_kp(seed=77)
    pk = kp.public()
    assert lamport.verify(pk, lamport.sign(kp, 0), 1) == 0
    assert lamport.verify(pk, lamport.sign(kp, 1), 0) == 0


def test_tampered_signature_rejected():
    rng = random.Random(11)
    rejections = 0
    trials = 1000
    for _ in range(trials):
        kp = lamport.keygen(P, rng)
        m = rng.getrandbits(1)
        sig = lamport.sign(kp, m)
        (x,), k = sig.sigma, rng.randrange(P.sk_bits)
        flipped = Signature(
            (BitString.from_int(x.to_int() ^ (1 << (x.bit_len - 1 - k)), x.bit_len),))
        if lamport.verify(kp.public(), flipped, m) == 0:
            rejections += 1
    assert rejections >= 0.99 * trials


def test_bad_message_bit():
    # sign refuses a message that is not a bit; verify answers it with 0
    kp = make_kp()
    with pytest.raises(DomainError):
        lamport.sign(kp, 2)
    assert lamport.verify(kp.public(), lamport.sign(kp, 0), "0") == 0
    # the bit indexes the key's halves: a float is not one
    with pytest.raises(DomainError):
        lamport.sign(kp, 1.0)
    assert lamport.verify(kp.public(), lamport.sign(kp, 1), 1.0) == 0


def test_wrong_signature_length():
    kp = make_kp()
    short = Signature((kp.pk[0],))  # n bits, not n+delta
    assert lamport.verify(kp.public(), short, 0) == 0


def test_hash_secret_checks_width():
    kp = make_kp()
    with pytest.raises(DomainError):
        lamport.hash_secret(P, kp.pk[0])


def test_entropy_failure_wrapped():
    class Broken:
        def getrandbits(self, k):
            raise OSError("no entropy")

    with pytest.raises(EntropyError):
        lamport.keygen(P, Broken())


def test_signature_of_more_than_one_half_rejected():
    # the first element is the signer's own half for bit 0: only the
    # length check refuses it
    kp = make_kp()
    assert lamport.verify(kp.public(), Signature((kp.sk[0], kp.sk[0])), 0) == 0
    assert lamport.verify(kp.public(), Signature((kp.sk[0], kp.sk[1])), 0) == 0
    assert lamport.verify(kp.public(), Signature(()), 0) == 0
