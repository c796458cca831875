"""Single-bit Lamport one-time signatures with an enlarged preimage space.

Secret key halves are (n+delta)-bit strings; public halves are their
n-bit oracle images.  The delta-bit excess is what makes an exhaustive
forger land on a preimage different from the signer's with high
probability, which is the whole point of the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import BitString, LamportParams, draw_bits
from .errors import DomainError
from .oracle import apply_step, lamport_step


def hash_secret(params: LamportParams, s: BitString) -> BitString:
    """The scheme's one-way map from a secret half to a public half."""
    if s.bit_len != params.sk_bits:
        raise DomainError(
            f"secret half must be {params.sk_bits} bits, got {s.bit_len}"
        )
    return apply_step(lamport_step(params.n, params.sk_bits), s)


@dataclass(frozen=True)
class LamportPublicKey:
    params: LamportParams
    pk0: BitString
    pk1: BitString

    def half(self, m: int) -> BitString:
        return self.pk1 if m else self.pk0


@dataclass(frozen=True)
class LamportKeyPair:
    params: LamportParams
    sk0: BitString
    sk1: BitString
    pk0: BitString
    pk1: BitString

    def public(self) -> LamportPublicKey:
        return LamportPublicKey(self.params, self.pk0, self.pk1)


@dataclass(frozen=True)
class LamportSignature:
    sigma: BitString


Signature = LamportSignature


def keygen(params: LamportParams, rng: random.Random) -> LamportKeyPair:
    sk0 = draw_bits(rng, params.sk_bits)
    sk1 = draw_bits(rng, params.sk_bits)
    return LamportKeyPair(
        params=params,
        sk0=sk0,
        sk1=sk1,
        pk0=hash_secret(params, sk0),
        pk1=hash_secret(params, sk1),
    )


def sign(kp: LamportKeyPair, m: int) -> LamportSignature:
    """Reveal the secret half matching the message bit; fully deterministic."""
    if m not in (0, 1):
        raise DomainError(f"message must be the bit 0 or 1, got {m!r}")
    return LamportSignature(kp.sk1 if m else kp.sk0)


def verify(pk: LamportPublicKey, sig: LamportSignature, m: int) -> int:
    if m not in (0, 1):
        raise DomainError(f"message must be the bit 0 or 1, got {m!r}")
    return 1 if hash_secret(pk.params, sig.sigma) == pk.half(m) else 0
