"""Winternitz one-time signatures over hash chains with per-step excess.

Messages of L bits are split into nu-bit base-w digits, a checksum is
appended, and each extended digit selects how far to walk the matching
secret chain.  The checksum guarantees that any other message forces at
least one digit strictly downward, so a forger must invert part of a
chain rather than merely advance known values.
"""

from __future__ import annotations

import random

from .core import (BitString, KeyPair, Params, PublicKey, Signature, WotsParams, bit_strings,
                   draw_bits)
from .errors import DomainError
from .oracle import SEED_BYTES, Seed, chain


# Names the benchmark harness (bench/workloads.py) imports.
WotsKeyPair = KeyPair
WotsPublicKey = PublicKey


def digits(value: int, count: int, params: WotsParams) -> tuple[int, ...]:
    """value as exactly count base-w digits, MSB-first."""
    return tuple(
        (value >> (params.nu * (count - 1 - i))) & (params.w - 1) for i in range(count)
    )


def to_base_w(M: BitString, params: WotsParams) -> tuple[int, ...]:
    """Split an L-bit message into l1 base-w digits, MSB-first."""
    if not isinstance(M, BitString) or M.bit_len != params.L:
        raise DomainError(f"message must be a BitString of {params.L} bits, got {M!r}")
    return digits(M.to_int(), params.l1, params)


def checksum(m_digits: tuple[int, ...], params: WotsParams) -> tuple[int, tuple[int, ...]]:
    """Sum of digit complements and its base-w form in exactly l2 digits."""
    C = sum(params.w - 1 - m for m in m_digits)
    return C, digits(C, params.l2, params)


def extend(M: BitString, params: WotsParams) -> tuple[int, ...]:
    """Message digits followed by checksum digits: the l chain depths."""
    m = to_base_w(M, params)
    _, c = checksum(m, params)
    return m + c


def public_values(params: WotsParams, r: Seed, sk) -> tuple[BitString, ...]:
    """The tops of the chains that start at the secret values sk under seed r."""
    return tuple(chain(params, r, 0, params.w - 1, s) for s in sk)


def keygen(params: WotsParams, rng: random.Random) -> KeyPair:
    r = Seed(draw_bits(rng, 8 * SEED_BYTES).payload)
    sk = tuple(draw_bits(rng, params.sk_bits) for _ in range(params.l))
    return KeyPair(params, r, sk, public_values(params, r, sk))


def sign(kp: KeyPair, M: BitString) -> Signature:
    b = extend(M, kp.params)
    sigma = tuple(
        chain(kp.params, kp.r, 0, b_i, sk_i) for b_i, sk_i in zip(b, kp.sk)
    )
    return Signature(sigma)


def verify(pk: PublicKey, sig: Signature, M: BitString) -> int:
    """Finish every chain from its claimed depth and compare to the public key.

    0, and no exception, for anything not of WOTS's shape: a key that is
    not a PublicKey of WOTS parameters with a SEED_BYTES seed and l n-bit
    chain tops, a message that is not an L-bit BitString, or a signature
    that is not l values, each a BitString as wide as its chain depth.
    """
    if not (isinstance(pk, PublicKey) and isinstance(pk.params, Params)
            and pk.params.scheme == "wots"):
        return 0
    params = pk.params
    if not (isinstance(pk.r, bytes) and len(pk.r) == SEED_BYTES
            and bit_strings(pk.pk, params.n) and len(pk.pk) == params.l
            and isinstance(M, BitString) and M.bit_len == params.L
            and isinstance(sig, Signature) and isinstance(sig.sigma, tuple)
            and len(sig.sigma) == params.l):
        return 0
    for b_i, sigma_i, pk_i in zip(extend(M, params), sig.sigma, pk.pk):
        if not isinstance(sigma_i, BitString) or sigma_i.bit_len != params.value_bits(b_i):
            return 0
        if chain(params, pk.r, b_i, params.w - 1, sigma_i) != pk_i:
            return 0
    return 1
