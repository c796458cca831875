"""Bit-exact bit strings, scheme parameters, and the key and signature
shapes that both schemes share.

All lengths are carried in bits, never inferred from byte counts, so
excess widths that are not byte-aligned work everywhere.
"""

from __future__ import annotations

import random

from .errors import EntropyError, InvalidParams

# The widest exhaustive sweep, and the most hashes one key may take to
# build: 2^28 is minutes on a desktop.
MAX_DOMAIN_BITS = 28

# The widest value a key may hold, 8 KiB: one oracle call then hashes at
# most 256 counter blocks, however the parameters were written.
MAX_VALUE_BITS = 1 << 16


class Record:
    """A frozen record whose fields are its class's ``__slots__``, in order,
    with what a frozen dataclass gives: equality with the same class only,
    the hash of the tuple of the fields, a ``Name(field=value, ...)`` repr
    that leaves out the fields named in ``_hidden``, and AttributeError on
    assigning or deleting a field.  One ``exec`` per class builds, as
    straight-line code over the fields, ``__eq__`` and ``__hash__`` on a
    tuple of the fields, ``_unchecked``, which makes a record of the fields
    in order without ``__init__``, and, unless the class writes its own,
    ``__init__``: it takes the fields in order, the trailing ones named in
    ``_defaults`` optional, sets each, and then calls the class's
    ``_check``, if it has one.  Fields are set through their slots' own
    descriptors."""

    __slots__ = ()
    _hidden = frozenset()
    _defaults = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__slots__
        fields = "".join(f"self.{n}, " for n in names)  # a tuple literal's items
        sets = "".join(f"\n    _set{i}(self, {n})" for i, n in enumerate(names))
        code = [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({fields}) == ({fields.replace('self.', 'other.')})",
            "    return NotImplemented",
            f"def __hash__(self):\n    return hash(({fields}))",
            f"def _unchecked({', '.join(names)}):\n    self = _new(_cls){sets}\n    return self",
        ]
        built = ["__eq__", "__hash__", "_unchecked"]
        if "__init__" not in cls.__dict__:
            params = ", ".join(f"{n}=_d[{n!r}]" if n in cls._defaults else n for n in names)
            check = "\n    self._check()" if hasattr(cls, "_check") else ""
            code.append(f"def __init__(self, {params}):{sets}{check}")
            built.append("__init__")
        scope = {f"_set{i}": cls.__dict__[n].__set__ for i, n in enumerate(names)}
        scope.update(_new=object.__new__, _cls=cls, _d=cls._defaults)
        exec("\n".join(code), scope)
        for name in built:
            fn = scope[name]
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, staticmethod(fn) if name == "_unchecked" else fn)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle set the fields without __init__, as for a dataclass
        return _rebuild, (self.__class__, tuple(getattr(self, n) for n in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _rebuild(cls, values):
    return cls._unchecked(*values)


class BitString(Record):
    """An arbitrary-length bit sequence, packed MSB-first within each byte.

    Pad bits beyond ``bit_len`` in the final byte must be zero, so equal
    bit strings compare equal as (bit_len, payload) pairs.  ``from_int``
    and ``oracle.apply_step`` build their values with ``_unchecked``:
    each makes exactly the payload that ``_check`` asks for.
    """

    __slots__ = ("bit_len", "payload")

    def _check(self):
        bit_len, payload = self.bit_len, self.payload
        if bit_len < 0:
            raise InvalidParams("bit_len must be non-negative")
        nbytes = (bit_len + 7) >> 3
        if len(payload) != nbytes:
            raise InvalidParams(
                f"payload holds {len(payload)} bytes, expected {nbytes} "
                f"for {bit_len} bits"
            )
        pad = -bit_len & 7
        if pad and payload[-1] & ((1 << pad) - 1):
            raise InvalidParams("pad bits beyond bit_len must be zero")

    @classmethod
    def from_int(cls, value: int, bit_len: int) -> "BitString":
        if value < 0 or bit_len < 0 or value >> bit_len:
            raise InvalidParams(f"{value} does not fit in {bit_len} bits")
        nbytes = (bit_len + 7) >> 3
        # whole bytes, the value's bits first and the pad bits zero
        return cls._unchecked(bit_len, (value << (-bit_len & 7)).to_bytes(nbytes, "big"))

    def to_int(self) -> int:
        nbytes = len(self.payload)
        return int.from_bytes(self.payload, "big") >> (8 * nbytes - self.bit_len)

    def hex(self) -> str:
        return self.payload.hex()


def bit_strings(values, bit_len=None) -> bool:
    """values is a tuple of BitStrings, each bit_len bits wide unless
    bit_len is None; a plain loop, the fastest test of the few values a
    key or signature holds."""
    if not isinstance(values, tuple):
        return False
    for v in values:
        if not isinstance(v, BitString) or (bit_len is not None and v.bit_len != bit_len):
            return False
    return True


def draw_bits(rng: random.Random, bit_len: int) -> BitString:
    """Draw a uniform bit string from the injected randomness source."""
    try:
        value = rng.getrandbits(bit_len) if bit_len else 0
    except Exception as exc:  # pragma: no cover - depends on a broken source
        raise EntropyError(f"randomness source failed: {exc}") from exc
    return BitString.from_int(value, bit_len)


def require_ints(**values) -> None:
    """Refuse any value that is not an int, a bool included, naming it."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidParams(f"{name} must be an integer, not {type(value).__name__}")


class LamportParams(Record):
    """Single-bit Lamport scheme parameters: n-bit images, (n+delta)-bit preimages."""

    __slots__ = ("n", "delta")
    scheme = "lamport"

    def _check(self):
        require_ints(n=self.n, delta=self.delta)
        if self.n < 1:
            raise InvalidParams("n must be >= 1")
        if self.delta < 0:
            raise InvalidParams("delta must be >= 0")
        _check_value_bits(self.sk_bits)

    @property
    def sk_bits(self) -> int:
        return self.n + self.delta


class WotsParams(Record):
    """Winternitz scheme parameters: n, delta, L and nu, from which
    w = 2^nu, l1, l2 and l are derived and checked.

    l2 is the number of base-w digits needed for the maximum checksum
    l1*(w-1): floor(log2(l1*(w-1)))/nu + 1, computed in exact integer
    arithmetic.  A key whose keygen takes more than 2^MAX_DOMAIN_BITS
    hashes (l chains of w-1 steps) is refused.  The derived fields are
    part of the value, so that equality is structural.
    """

    __slots__ = ("n", "delta", "L", "nu", "w", "l1", "l2", "l")
    scheme = "wots"

    def __init__(self, n: int, delta: int, L: int, nu: int):
        require_ints(n=n, delta=delta, L=L, nu=nu)
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
        for name, value in zip(self.__slots__, (n, delta, L, nu, w, l1, l2, l)):
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

Params = LamportParams | WotsParams


def _check_value_bits(sk_bits: int) -> None:
    """Refuse parameters whose widest value, the secret, exceeds MAX_VALUE_BITS."""
    if sk_bits > MAX_VALUE_BITS:
        raise InvalidParams(
            f"secret values of {sk_bits} bits exceed the {MAX_VALUE_BITS}-bit cap")


class PublicKey(Record):
    """The images of a key's secret values, one shape for both schemes:
    Lamport's halves pk[0] and pk[1] with no seed (r is None: its map has
    no key), or the tops of WOTS's l chains under the oracle.Seed r."""

    __slots__ = ("params", "r", "pk")


class KeyPair(Record):
    """A public key and its secret values sk, in the order of pk."""

    __slots__ = ("params", "r", "sk", "pk")

    def public(self) -> PublicKey:
        return PublicKey(self.params, self.r, self.pk)


class Signature(Record):
    """The values a signature reveals: the 1-tuple of one Lamport half,
    or one value on each of the l WOTS chains."""

    __slots__ = ("sigma",)
