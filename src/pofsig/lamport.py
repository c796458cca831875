"""Single-bit Lamport one-time signatures with an enlarged preimage space.

Secret key halves are (n+delta)-bit strings; public halves are their
n-bit oracle images.  The delta-bit excess is what makes an exhaustive
forger land on a preimage different from the signer's with high
probability, which is the whole point of the construction.
"""

from __future__ import annotations

import random

from .core import (BitString, KeyPair, LamportParams, Params, PublicKey, Signature, bit_strings,
                   draw_bits)
from .errors import DomainError
from .oracle import apply_step, lamport_step


def hash_secret(params: LamportParams, s: BitString) -> BitString:
    """The scheme's one-way map from a secret half to a public half."""
    bits = params.sk_bits
    if s.bit_len != bits:
        raise DomainError(f"secret half must be {bits} bits, got {s.bit_len}")
    return apply_step(lamport_step(params.n, bits), s)


# Names the benchmark harness (bench/workloads.py) imports.
LamportKeyPair = KeyPair
LamportPublicKey = PublicKey


def public_values(params: LamportParams, r, sk) -> tuple[BitString, ...]:
    """The public halves of secret halves sk; r is None: the map has no key."""
    return tuple(hash_secret(params, s) for s in sk)


def keygen(params: LamportParams, rng: random.Random) -> KeyPair:
    """Two secret halves, sk[0] and sk[1], and their images; no seed."""
    bits = params.sk_bits
    sk = (draw_bits(rng, bits), draw_bits(rng, bits))
    return KeyPair(params, None, sk, public_values(params, None, sk))


def sign(kp: KeyPair, m: int) -> Signature:
    """Reveal the secret half matching the message bit; fully deterministic."""
    if not isinstance(m, int) or m not in (0, 1):
        raise DomainError(f"message must be the bit 0 or 1, got {m!r}")
    return Signature((kp.sk[m],))


def verify(pk: PublicKey, sig: Signature, m: int) -> int:
    """1 iff sig is one revealed half whose image is pk's half for m.  0, and
    no exception, for anything not of Lamport's shape: a key that is not a
    PublicKey of Lamport parameters with no seed and two n-bit halves, a
    message that is not the bit 0 or 1, or a signature that is not one
    (n+delta)-bit half."""
    if not (isinstance(pk, PublicKey) and isinstance(pk.params, Params)
            and pk.params.scheme == "lamport"):
        return 0
    params = pk.params
    if not (isinstance(m, int) and m in (0, 1) and pk.r is None
            and bit_strings(pk.pk, params.n) and len(pk.pk) == 2 and isinstance(sig, Signature)
            and bit_strings(sig.sigma, params.sk_bits) and len(sig.sigma) == 1):
        return 0
    return 1 if hash_secret(params, sig.sigma[0]) == pk.pk[m] else 0
