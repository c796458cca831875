"""Deterministic random-oracle backend with domain separation.

A single SHA-256-based construction serves both schemes.  The requested
output width is bound into the hashed tag, so oracles of different
widths are independent functions rather than prefixes of each other.

Normative layout of the hashed message for an evaluation::

    T = label || 0x00 || r_or_empty || u8(index_or_0)
          || be64(out_bits) || be64(in_bit_len) || payload
    stream = SHA256(T || be32(0)) || SHA256(T || be32(1)) || ...
    output = first out_bits bits of stream (MSB-first)

The Winternitz one-way family keyed by a 16-byte seed r and a chain
index i is realized by putting (r, i) into the tag instead of the
bit-mask-XOR construction; each member still behaves as an independent
random oracle.

This module is the only one that knows the layout.  Every oracle map is
one step (tag_prefix, out_bits): ``lamport_step`` is the Lamport map, and
``chain_steps(params, r)`` is the tuple of the w-1 chain maps
f_{r,1} .. f_{r,w-1} of one key, built once per key.  ``apply_step``
evaluates one value through a step, and ``image_blocks`` is the one
kernel that sweeps a whole input domain, or a contiguous sub-range of
it, through a step for exhaustive search and the census, yielding the
images block by block as arrays, lazily and with no Python frame per
input; ``domain_images`` yields the same images as integers.

SHA-256 is the interpreter's built-in one (``_sha2``, or ``_sha256``
before Python 3.12), as ``random`` takes its SHA-512, and
``hashlib.sha256`` only where neither is built.  The function is the
same; a built-in hash state copies without an OpenSSL EVP context (~60
against ~210 ns), which saves more than its slower digest costs, and
importing it loads no libcrypto.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import deque
from itertools import chain as _chain_iterables, repeat
from typing import Iterator, Optional

from .core import BitString, Record, WotsParams
from .errors import DomainError, InvalidParams

try:
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

LABEL_LAMPORT = b"LAM"
LABEL_WOTS_CHAIN = b"WOTS-F"

_LABELS = (LABEL_LAMPORT, LABEL_WOTS_CHAIN)

SEED_BYTES = 16

_CTR0 = b"\x00\x00\x00\x00"  # be32(0), the first counter block

_LIVE_STATES = 256  # the most hash states a sweep keeps alive (see image_blocks)


class Seed(bytes):
    """16-byte randomizer for the Winternitz chain family."""

    def __new__(cls, data: bytes) -> "Seed":
        if len(data) != SEED_BYTES:
            raise InvalidParams(f"seed must be {SEED_BYTES} bytes, got {len(data)}")
        return super().__new__(cls, data)


class OracleTag(Record):
    """Domain-separation tag: label, optional seed, optional chain index."""

    __slots__ = ("label", "r", "index")
    _defaults = {"r": None, "index": None}

    def _check(self):
        label, r, index = self.label, self.r, self.index
        if label not in _LABELS:
            raise InvalidParams(f"unknown oracle label {label!r}")
        if label == LABEL_WOTS_CHAIN:
            if index is None or index < 1:
                raise InvalidParams("chain oracle needs an index >= 1")
            if r is None:
                raise InvalidParams("chain oracle needs a seed")
        else:
            if index is not None:
                raise InvalidParams("index is only valid for the chain oracle")


_LAMPORT_TAG = OracleTag(LABEL_LAMPORT)


def tag_prefix(tag: OracleTag, out_bits: int, in_bit_len: int) -> bytes:
    """The tag-and-lengths header T minus the input payload."""
    r = bytes(tag.r) if tag.r is not None else b""
    idx = tag.index if tag.index is not None else 0
    return (
        tag.label
        + b"\x00"
        + r
        + bytes([idx])
        + out_bits.to_bytes(8, "big")
        + in_bit_len.to_bytes(8, "big")
    )


def digest_bits(prefix: bytes, payload: bytes, out_bits: int) -> bytes:
    """First out_bits of the counter-mode SHA-256 stream, pad bits zeroed:
    for out_bits >= 0, exactly the payload a BitString of out_bits asks for."""
    nbytes = (out_bits + 7) >> 3
    msg = prefix + payload
    out = _sha256(msg + _CTR0).digest()
    ctr = 1
    while len(out) < nbytes:
        out += _sha256(msg + ctr.to_bytes(4, "big")).digest()
        ctr += 1
    pad = -out_bits & 7
    if pad:
        last = nbytes - 1
        return out[:last] + bytes((out[last] >> pad << pad,))
    return out[:nbytes]


def domain_images(step: tuple[bytes, int], domain_bits: int) -> Iterator[int]:
    """Iterate, in ascending input order, over the image of every
    domain_bits-bit input under the oracle step (tag_prefix, out_bits),
    each as the integer ``apply_step(step, x).to_int()``: the items of
    ``image_blocks(step, domain_bits)``, one block at a time."""
    return _chain_iterables.from_iterable(image_blocks(step, domain_bits))


def image_blocks(
    step: tuple[bytes, int], domain_bits: int, inputs: Optional[range] = None
) -> Iterator[array]:
    """The images of ``domain_images``, lazily, as one array per block of
    inputs, in the narrowest typecode that holds out_bits bits; inputs, when
    given, is the sub-range of the domain to sweep: a step-1 ``range``
    with 0 <= start <= stop <= 2^domain_bits, else ``InvalidParams``.

    Outputs are capped at 64 bits, the widest array item, and read from
    the first block of the counter stream: one hash of
    ``payload || be32(0)`` per input, whose leading out_bits bits are
    its image.  An input splits into a high part and its ``low`` low
    bits, where ``low`` is at most 12 and congruent to domain_bits mod 8:
    a domain of up to 12 bits is all low bits, and a wider one's high
    part fills whole leading bytes of the payload.  The low bits are
    then laid out as a low-bit payload, and the 2^low inputs that share
    a high part form a block (2^5 to 2^12 inputs in a domain over 12
    bits).  Each block hashes its high bytes once onto a copy of the
    prefix's hash state, then copies that state once per input, appends
    the input's tail from a cached table, and digests, in C-level
    ``map``s over slices of at most 256 inputs.  The block's digests are
    joined and their leading item bytes read strided, as one big-endian
    integer, which one shift and one mask cut down to out_bits per item.
    The sweep is lazy, so a 28-bit sweep is never held whole, and at
    most 256 hash states are alive at a time, besides the prefix's and
    the block's.  The built-in states are tracked by the cyclic GC, which
    collects its youngest generation after 700 net allocations: a
    block's 4096 live states would set off collections that promote
    them, and so older and full collections, block after block.  Chains
    are swept one step at a time (see ``adversary.chain_tops``).
    """
    prefix, out_bits = step
    if not 1 <= out_bits <= 64:
        raise InvalidParams(
            f"a domain sweep needs 1 <= out_bits <= 64, got {out_bits}"
        )
    if domain_bits < 0:
        raise InvalidParams(f"a domain sweep needs domain_bits >= 0, got {domain_bits}")
    size = 1 << domain_bits
    if inputs is None:
        inputs = range(size)
    elif not (isinstance(inputs, range) and inputs.step == 1
              and 0 <= inputs.start <= inputs.stop <= size):
        raise InvalidParams(
            f"inputs must be a step-1 sub-range of the {domain_bits}-bit domain"
        )
    low = min(domain_bits, 5 + (domain_bits - 5) % 8)
    return _sweep(_sha256(prefix), out_bits, (domain_bits - low) // 8, low, inputs)


def _sweep(h0, out_bits: int, head_bytes: int, low: int, inputs: range) -> Iterator[array]:
    """The images of inputs, block by block.  A block's words, the
    leading item bytes of each digest, are read as one big-endian
    integer.  One right shift cuts every word to its out_bits leading
    bits, but moves the bits a word drops into the top of the next; the
    mask, the out_bits-bit word mask once per input of a full block,
    clears them (a short block's integer is narrower, so the extra words
    of the mask meet zeros)."""
    H = type(h0)
    tails = _payloads(low)
    start, stop = inputs.start, inputs.stop
    code = next(c for c in "BHILQ" if 8 * array(c).itemsize >= out_bits)
    item = array(code).itemsize
    shift = 8 * item - out_bits
    mask = int.from_bytes(((1 << out_bits) - 1).to_bytes(item, "big") * (1 << low), "big")

    def hashed(h, tails: tuple[bytes, ...]) -> bytes:
        hs = list(map(H.copy, repeat(h, len(tails))))
        deque(map(H.update, hs, tails), 0)
        return b"".join(map(H.digest, hs))

    def block(hi: int) -> array:
        base = hi << low
        h = h0.copy()
        h.update(hi.to_bytes(head_bytes, "big"))
        part = tails[max(start - base, 0):stop - base]
        digests = b"".join([hashed(h, part[i:i + _LIVE_STATES])
                            for i in range(0, len(part), _LIVE_STATES)])
        words = memoryview(digests).cast(code)[::32 // item]
        images = array(code, ((int.from_bytes(words, "big") >> shift) & mask)
                       .to_bytes(item * len(part), "big"))
        if sys.byteorder == "little":  # array items are native words
            images.byteswap()
        return images

    return map(block, range(start >> low, -(-stop >> low)))


@functools.lru_cache(maxsize=None)  # one per width 0..12
def _payloads(bits: int) -> tuple[bytes, ...]:
    """``payload || be32(0)`` of every bits-bit input, in input order."""
    nbytes = (bits + 7) // 8
    pad = 8 * nbytes - bits
    return tuple((v << pad).to_bytes(nbytes, "big") + _CTR0 for v in range(1 << bits))


@functools.lru_cache(maxsize=256)
def lamport_step(n: int, sk_bits: int) -> tuple[bytes, int]:
    """The Lamport map from an sk_bits-bit secret half to its n-bit image."""
    return tag_prefix(_LAMPORT_TAG, n, sk_bits), n


@functools.lru_cache(maxsize=256)
def chain_steps(params: WotsParams, r: Seed) -> tuple[tuple[bytes, int], ...]:
    """The w-1 chain maps of key r: steps[i-1] takes a position-(i-1) value
    to position i, so steps[a:b] walks a value from position a to b."""
    bits = [params.value_bits(i) for i in range(params.w)]
    return tuple(
        (tag_prefix(OracleTag(LABEL_WOTS_CHAIN, r, i), bits[i], bits[i - 1]), bits[i])
        for i in range(1, params.w)
    )


def apply_step(step: tuple[bytes, int], x: BitString) -> BitString:
    """Evaluate one oracle step on x.  A step's out_bits went through
    ``tag_prefix``, whose be64 refuses a negative or non-integer width, so
    digest_bits' output needs no second check."""
    prefix, out_bits = step
    return BitString._unchecked(out_bits, digest_bits(prefix, x.payload, out_bits))


def oracle_eval(tag: OracleTag, x: BitString, out_bits: int) -> BitString:
    """Evaluate the oracle named by tag on x, producing exactly out_bits bits."""
    if out_bits < 1:
        raise InvalidParams("out_bits must be >= 1")
    return apply_step((tag_prefix(tag, out_bits, x.bit_len), out_bits), x)


def chain(params: WotsParams, r: Seed, a: int, b: int, x: BitString) -> BitString:
    """Walk a value from chain position a up to position b (inclusive ends).

    a == b returns x unchanged; composition holds:
    chain(a, c, x) == chain(b, c, chain(a, b, x)) for a <= b <= c.
    """
    if a > b:
        raise IndexError(f"chain start {a} exceeds end {b}")
    if b > params.w - 1:
        raise IndexError(f"chain end {b} exceeds w-1={params.w - 1}")
    if a < 0:
        raise IndexError(f"chain start {a} is negative")
    if x.bit_len != params.value_bits(a):
        raise DomainError(
            f"value at position {a} must be {params.value_bits(a)} bits, "
            f"got {x.bit_len}"
        )
    for step in chain_steps(params, r)[a:b]:
        x = apply_step(step, x)
    return x
