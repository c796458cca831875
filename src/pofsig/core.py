"""Bit-exact bit strings, scheme parameters, and the key and signature
shapes that both schemes share.

All lengths are carried in bits, never inferred from byte counts, so
excess widths that are not byte-aligned work everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

from .errors import EntropyError, InvalidParams

# The widest exhaustive sweep, and the most hashes one key may take to
# build: 2^28 is minutes on a desktop.
MAX_DOMAIN_BITS = 28

# The widest value a key may hold, 8 KiB: one oracle call then hashes at
# most 256 counter blocks, however the parameters were written.
MAX_VALUE_BITS = 1 << 16


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
        _check_value_bits(self.sk_bits)

    @property
    def sk_bits(self) -> int:
        return self.n + self.delta


@dataclass(frozen=True)
class WotsParams:
    """Winternitz scheme parameters: n, delta, L and nu, from which
    w = 2^nu, l1, l2 and l are derived and checked.

    l2 is the number of base-w digits needed for the maximum checksum
    l1*(w-1): floor(log2(l1*(w-1)))/nu + 1, computed in exact integer
    arithmetic.  A key whose keygen takes more than 2^MAX_DOMAIN_BITS
    hashes (l chains of w-1 steps) is refused.  The derived fields are
    part of the value, so that equality is structural.
    """

    scheme: ClassVar[str] = "wots"
    n: int
    delta: int
    L: int
    nu: int
    w: int = field(init=False)
    l1: int = field(init=False)
    l2: int = field(init=False)
    l: int = field(init=False)

    def __post_init__(self):
        n, delta, L, nu = self.n, self.delta, self.L, self.nu
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
        l2 = ((l1 * (w - 1)).bit_length() - 1) // nu + 1
        l = l1 + l2
        if l * (w - 1) > 1 << MAX_DOMAIN_BITS:
            raise InvalidParams(
                f"a key of {l} chains of {w - 1} steps exceeds 2^{MAX_DOMAIN_BITS} hashes")
        for name, value in (("w", w), ("l1", l1), ("l2", l2), ("l", l)):
            object.__setattr__(self, name, value)
        _check_value_bits(self.sk_bits)

    @property
    def sk_bits(self) -> int:
        return self.n + self.delta * (self.w - 1)

    def value_bits(self, pos: int) -> int:
        """Bit length of a chain value at position pos in {0..w-1}."""
        if not 0 <= pos <= self.w - 1:
            raise InvalidParams(f"chain position {pos} out of range")
        return self.n + self.delta * (self.w - 1 - pos)


# The name callers build WOTS parameters by, positionally.
derive_wots_params = WotsParams

Params = Union[LamportParams, WotsParams]


def _check_value_bits(sk_bits: int) -> None:
    """Refuse parameters whose widest value, the secret, exceeds MAX_VALUE_BITS."""
    if sk_bits > MAX_VALUE_BITS:
        raise InvalidParams(
            f"secret values of {sk_bits} bits exceed the {MAX_VALUE_BITS}-bit cap")


@dataclass(frozen=True)
class PublicKey:
    """The images of a key's secret values, one shape for both schemes:
    Lamport's halves pk[0] and pk[1] with no seed (r is None: its map has
    no key), or the tops of WOTS's l chains under the oracle.Seed r."""

    params: Params
    r: Optional[bytes]
    pk: tuple[BitString, ...]


@dataclass(frozen=True)
class KeyPair:
    """A public key and its secret values sk, in the order of pk."""

    params: Params
    r: Optional[bytes]
    sk: tuple[BitString, ...]
    pk: tuple[BitString, ...]

    def public(self) -> PublicKey:
        return PublicKey(self.params, self.r, self.pk)


@dataclass(frozen=True)
class Signature:
    """The values a signature reveals: the 1-tuple of one Lamport half,
    or one value on each of the l WOTS chains."""

    sigma: tuple[BitString, ...]
