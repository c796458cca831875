"""Brute-force forgery at toy hash sizes.

Everything here is exhaustive search, and every sweep runs the kernel
``oracle.image_blocks``: only a drawn preimage becomes a ``BitString``.
The Lamport hash is inverted one way: ``build_lamport_preimage_index``
sweeps its domain in forked jobs and files each image, or each target
image asked for, with its preimages.  An experiment indexes every image
once; a single forgery indexes its one target.  Winternitz chains are
inverted through a per-key table of every depth's chain tops
(``chain_tops``).  ``enumerate_preimages`` is the generic per-candidate
reference that tests compare the sweeps against.  A hard cap on domain
width keeps runs at desk scale; production sizes are refused outright.
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict, deque
from collections.abc import Callable
from itertools import chain as _chain_iterables, compress

from .core import (
    MAX_DOMAIN_BITS, BitString, LamportParams, PublicKey, Record, Signature, WotsParams,
)
from .errors import BudgetExceeded, DomainError, EmptyPreimageSet, InvalidParams
from .forkjoin import fork_map, split
from .oracle import Seed, chain, chain_steps, image_blocks, lamport_step
from .wots import extend


class ForgeryBudget(Record):
    """Cap on exhaustive-search width; 28 bits is minutes on a desktop."""

    __slots__ = ("max_domain_bits",)
    _defaults = {"max_domain_bits": MAX_DOMAIN_BITS}

    def _check(self):
        if not 1 <= self.max_domain_bits <= MAX_DOMAIN_BITS:
            raise InvalidParams(
                f"max_domain_bits must be in 1..{MAX_DOMAIN_BITS}"
            )

    def check(self, domain_bits: int) -> None:
        if domain_bits > self.max_domain_bits:
            raise BudgetExceeded(
                f"enumerating a {domain_bits}-bit domain exceeds the "
                f"{self.max_domain_bits}-bit budget"
            )


class PreimageSet(Record):
    """The complete preimage set of one oracle output, in ascending input order."""

    __slots__ = ("members",)
    _hidden = frozenset({"members"})

    @property
    def count(self) -> int:
        return len(self.members)


def enumerate_preimages(
    oracle_fn: Callable[[BitString], BitString],
    y0: BitString,
    domain_bits: int,
    budget: ForgeryBudget,
) -> PreimageSet:
    """Scan the whole domain and collect every input mapping to y0."""
    budget.check(domain_bits)
    members = []
    for v in range(1 << domain_bits):
        x = BitString.from_int(v, domain_bits)
        if oracle_fn(x) == y0:
            members.append(x)
    return PreimageSet(tuple(members))


def _draw(members, target: BitString, rng: random.Random):
    """One uniform member of target's preimages: the one sampling rule."""
    if not members:
        raise EmptyPreimageSet(f"target {target.hex()} has no preimage")
    return members[rng.randrange(len(members))]


def _members(row: list[int], target: BitString) -> list[int]:
    """The positions of target's value in row, ascending, found by C-level
    ``row.index`` scans, one per member and one to tell there are no more."""
    y, members, i = target.to_int(), [], -1
    try:
        while True:
            i = row.index(y, i + 1)
            members.append(i)
    except ValueError:
        return members


def build_lamport_preimage_index(
    params: LamportParams, targets: set[int] | None = None
) -> dict[int, array]:
    """Image table of the Lamport oracle at these parameters: each image,
    or each one in targets when given, maps to an ``array('I')`` of its
    preimages, ascending as a scan finds them (4-6 B per domain entry at
    n = 8).  Domains wider than ``MAX_DOMAIN_BITS`` raise
    ``BudgetExceeded`` before enumerating.  Jobs (``forkjoin``) each file
    a contiguous input range by image.  The caller's own job, the first,
    is the start of the index; each forked worker sends back its kept
    images' members as bytes, appended image by image in job order: the
    index is the serial sweep's, and the parent never holds the rest.
    """
    domain_bits = params.sk_bits
    ForgeryBudget().check(domain_bits)
    step = lamport_step(params.n, domain_bits)

    def file_range(inputs: range) -> dict[int, array]:
        part, v = defaultdict(lambda: array("I")), inputs.start
        for images in image_blocks(step, domain_bits, inputs):
            members = range(v, v + len(images))
            v = members.stop
            if targets is not None:
                kept = list(map(targets.__contains__, images))
                images, members = compress(images, kept), compress(members, kept)
            deque(map(array.append, map(part.__getitem__, images), members), 0)
        return dict(part)

    # a worker's arrays come back as bytes (marshal); a job that its worker
    # did not deliver is rerun here and gives arrays, which bytes() copies
    index, *rest = fork_map(file_range, split(1 << domain_bits, 1))
    for part in rest:
        for y, members in part.items():
            index.setdefault(y, array("I")).frombytes(bytes(members))
        part.clear()  # each freed once joined
    return index


def forge_lamport(
    pk: PublicKey,
    known_m: int,
    known_sig: Signature,
    m_star: int,
    budget: ForgeryBudget,
    rng: random.Random,
    index: dict[int, array] | None = None,
) -> Signature:
    """Invert the public half for the target bit and emit a random preimage,
    drawn from index or, when none is given, from an index of that half.

    The output verifies unconditionally; whether it coincides with the
    signer's own secret half is exactly the detection-failure event.
    """
    if not isinstance(m_star, int) or m_star not in (0, 1) or m_star == known_m:
        raise DomainError(f"target message must be the bit not signed, got {m_star!r}")
    bits = pk.params.sk_bits
    budget.check(bits)
    y0 = pk.pk[m_star]
    if index is None:
        index = build_lamport_preimage_index(pk.params, {y0.to_int()})
    members = index.get(y0.to_int(), ())
    return Signature((BitString.from_int(_draw(members, y0, rng), bits),))


def chain_tops(
    params: WotsParams, r: Seed, d_min: int, budget: ForgeryBudget
) -> dict[int, list[int]]:
    """The per-key chain table: for each depth d from w-2 down to d_min,
    the finished-chain (top) value of every depth-d input, in ascending
    input order, as an integer.

    The chain oracles depend on r and the step only, so one table serves
    every position of a key.  It is built top-down: each depth takes one
    single-step sweep, whose images index the row above, so the whole
    table costs the sum over d of 2^value_bits(d) hashes.
    """
    depths = range(params.w - 2, d_min - 1, -1)
    for d in depths:
        budget.check(params.value_bits(d))
    tops: dict[int, list[int]] = {}
    for d in depths:
        blocks = image_blocks(chain_steps(params, r)[d], params.value_bits(d))
        images = _chain_iterables.from_iterable(blocks)
        if d + 1 in tops:
            images = map(tops[d + 1].__getitem__, images)
        tops[d] = list(images)
    return tops


def chain_preimages(
    params: WotsParams,
    r: Seed,
    b_star: int,
    pk_value: BitString,
    budget: ForgeryBudget,
) -> PreimageSet:
    """All position-b_star values whose finished chain reaches pk_value:
    the entries of the depth-b_star row of the chain table equal to it."""
    bits = params.value_bits(b_star)
    budget.check(bits)
    if b_star == params.w - 1:  # the top itself: no step to invert
        y = pk_value.to_int()
        found = [y] if y < 1 << bits else []
    else:
        found = _members(chain_tops(params, r, b_star, budget)[b_star], pk_value)
    return PreimageSet(tuple(BitString.from_int(v, bits) for v in found))


def forge_wots(
    pk: PublicKey,
    known_M: BitString,
    known_sig: Signature,
    M_star: BitString,
    budget: ForgeryBudget,
    rng: random.Random,
    tops: dict[int, list[int]] | None = None,
) -> Signature:
    """Forge a signature for M_star from one observed message-signature pair.

    Positions whose target depth is not below the known depth are
    advanced along the chain from the known value.  Positions forced
    downward by the checksum are inverted exhaustively through the key's
    chain table (``chain_tops``; built down to the deepest such depth
    when none is given) and a uniformly random member of the preimage
    set is taken.
    """
    params = pk.params
    if M_star == known_M:
        raise DomainError("target message must differ from the signed one")
    b = extend(known_M, params)
    b_star = extend(M_star, params)
    inverted = [d for d, known in zip(b_star, b) if d < known]
    if tops is None:
        tops = chain_tops(params, pk.r, min(inverted), budget)
    sigma_star = []
    for i in range(params.l):
        if b_star[i] >= b[i]:
            sigma_star.append(chain(params, pk.r, b[i], b_star[i], known_sig.sigma[i]))
        else:
            v = _draw(_members(tops[b_star[i]], pk.pk[i]), pk.pk[i], rng)
            sigma_star.append(BitString.from_int(v, params.value_bits(b_star[i])))
    return Signature(tuple(sigma_star))


def forge(
    pk, M, sigma, M_star, budget: ForgeryBudget, rng: random.Random,
    index: dict | None = None,
):
    """Forge a signature for M_star under pk's scheme from one signed pair
    (M, sigma); index is the scheme's inversion table, if one was built:
    a Lamport preimage index or the key's WOTS chain table."""
    if pk.params.scheme == "lamport":
        return forge_lamport(pk, M, sigma, M_star, budget, rng, index=index)
    return forge_wots(pk, M, sigma, M_star, budget, rng, tops=index)
