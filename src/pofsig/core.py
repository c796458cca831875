"""Bit-exact bit strings and scheme parameters.

All lengths are carried in bits, never inferred from byte counts, so
excess widths that are not byte-aligned work everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

from .errors import EntropyError, InvalidParams

# The widest exhaustive sweep, and the most hashes one key may take to
# build: 2^28 is minutes on a desktop.
MAX_DOMAIN_BITS = 28


@dataclass(frozen=True)
class BitString:
    """An arbitrary-length bit sequence, packed MSB-first within each byte.

    Pad bits beyond ``bit_len`` in the final byte must be zero, so equal
    bit strings compare equal as (bit_len, payload) pairs.
    """

    bit_len: int
    payload: bytes

    def __post_init__(self):
        if self.bit_len < 0:
            raise InvalidParams("bit_len must be non-negative")
        nbytes = (self.bit_len + 7) // 8
        if len(self.payload) != nbytes:
            raise InvalidParams(
                f"payload holds {len(self.payload)} bytes, expected {nbytes} "
                f"for {self.bit_len} bits"
            )
        pad = 8 * nbytes - self.bit_len
        if pad and (self.payload[-1] & ((1 << pad) - 1)):
            raise InvalidParams("pad bits beyond bit_len must be zero")

    @classmethod
    def from_int(cls, value: int, bit_len: int) -> "BitString":
        if value < 0 or value >> bit_len:
            raise InvalidParams(f"{value} does not fit in {bit_len} bits")
        nbytes = (bit_len + 7) // 8
        return cls(bit_len, (value << (8 * nbytes - bit_len)).to_bytes(nbytes, "big"))

    def to_int(self) -> int:
        if self.bit_len == 0:
            return 0
        nbytes = len(self.payload)
        return int.from_bytes(self.payload, "big") >> (8 * nbytes - self.bit_len)

    def hex(self) -> str:
        return self.payload.hex()


def draw_bits(rng: random.Random, bit_len: int) -> BitString:
    """Draw a uniform bit string from the injected randomness source."""
    try:
        value = rng.getrandbits(bit_len) if bit_len else 0
    except Exception as exc:  # pragma: no cover - depends on a broken source
        raise EntropyError(f"randomness source failed: {exc}") from exc
    return BitString.from_int(value, bit_len)


@dataclass(frozen=True)
class LamportParams:
    """Single-bit Lamport scheme parameters: n-bit images, (n+delta)-bit preimages."""

    scheme: ClassVar[str] = "lamport"
    n: int
    delta: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("n must be >= 1")
        if self.delta < 0:
            raise InvalidParams("delta must be >= 0")

    @property
    def sk_bits(self) -> int:
        return self.n + self.delta


@dataclass(frozen=True)
class WotsParams:
    """Winternitz scheme parameters with derived block/chain quantities.

    Construct via :func:`derive_wots_params`; the derived fields (w, l1,
    l2, l) are part of the value so that equality is structural.
    """

    scheme: ClassVar[str] = "wots"
    n: int
    delta: int
    L: int
    nu: int
    w: int
    l1: int
    l2: int
    l: int

    @property
    def sk_bits(self) -> int:
        return self.n + self.delta * (self.w - 1)

    def value_bits(self, pos: int) -> int:
        """Bit length of a chain value at position pos in {0..w-1}."""
        if not 0 <= pos <= self.w - 1:
            raise InvalidParams(f"chain position {pos} out of range")
        return self.n + self.delta * (self.w - 1 - pos)


def derive_wots_params(n: int, delta: int, L: int, nu: int) -> WotsParams:
    """Fill in w = 2^nu, l1, l2 and l from the base parameters.

    l2 is the number of base-w digits needed for the maximum checksum
    l1*(w-1): floor(log2(l1*(w-1)))/nu + 1, computed in exact integer
    arithmetic.  A key whose keygen takes more than 2^MAX_DOMAIN_BITS
    hashes (l chains of w-1 steps) is refused.
    """
    if n < 1 or delta < 0 or L < 1 or nu < 1:
        raise InvalidParams("need n >= 1, delta >= 0, L >= 1, nu >= 1")
    if L % nu != 0:
        raise InvalidParams(f"L={L} must be a multiple of nu={nu}")
    if nu > 8:
        # the oracle layout stores the chain index, up to w-1, as a u8
        raise InvalidParams(f"nu={nu} > 8 needs chain indices above 255")
    w = 2 ** nu
    l1 = (L + nu - 1) // nu
    # floor(log2(x)) == x.bit_length() - 1 for x >= 1
    l2 = (l1 * (w - 1)).bit_length() - 1
    l2 = l2 // nu + 1
    l = l1 + l2
    if l * (w - 1) > 1 << MAX_DOMAIN_BITS:
        raise InvalidParams(
            f"a key of {l} chains of {w - 1} steps exceeds 2^{MAX_DOMAIN_BITS} hashes")
    return WotsParams(n=n, delta=delta, L=L, nu=nu, w=w, l1=l1, l2=l2, l=l)
