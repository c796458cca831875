"""Brute-force forgery at toy hash sizes.

Everything here is exhaustive search: full preimage-set enumeration for
the Lamport oracle and full inversion of composed Winternitz chains.
Every domain sweep runs through ``oracle.domain_images`` over the step
list that ``oracle.lamport_steps`` or ``oracle.chain_steps`` builds;
``enumerate_preimages`` is the generic per-candidate reference that
tests compare the sweeps against.  A hard cap on domain width keeps
runs at desk scale; production sizes are refused outright.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import BitString, LamportParams, WotsParams
from .errors import BudgetExceeded, DomainError, EmptyPreimageSet, InvalidParams
from .lamport import LamportPublicKey, LamportSignature
from .oracle import Seed, chain, chain_steps, domain_images, lamport_steps
from .wots import WotsPublicKey, WotsSignature, extend

MAX_DOMAIN_BITS = 28


@dataclass(frozen=True)
class ForgeryBudget:
    """Cap on exhaustive-search width; 28 bits is minutes on a desktop."""

    max_domain_bits: int = MAX_DOMAIN_BITS

    def __post_init__(self):
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


@dataclass(frozen=True)
class PreimageSet:
    """The complete preimage set of one oracle output, in ascending input order."""

    target: BitString
    domain_bits: int
    members: tuple[BitString, ...] = field(repr=False)

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
    return PreimageSet(target=y0, domain_bits=domain_bits, members=tuple(members))


def sample_preimage(ps: PreimageSet, rng: random.Random) -> BitString:
    return _draw(ps.members, ps.target, rng)


def _draw(members, target: BitString, rng: random.Random):
    """One uniform member of target's preimages: the one sampling rule."""
    if not members:
        raise EmptyPreimageSet(f"target {target.hex()} has no preimage")
    return members[rng.randrange(len(members))]


def _scan(steps, target: BitString, domain_bits: int) -> PreimageSet:
    """Every domain input whose image through steps equals target."""
    y0 = target.payload
    members = tuple(
        BitString.from_int(v, domain_bits)
        for v, y in enumerate(domain_images(steps, domain_bits))
        if y == y0
    )
    return PreimageSet(target=target, domain_bits=domain_bits, members=members)


def build_lamport_preimage_index(params: LamportParams) -> dict[bytes, array]:
    """Full image table of the Lamport oracle at these parameters.

    The Lamport hash is one fixed function per (n, delta), so batch runs
    enumerate it once and answer every inversion by lookup.  Each image
    maps to an ``array('I')`` of its preimages as integers, ascending as
    a scan finds them: 4-6 B per domain entry at n = 8.  Domains wider
    than ``MAX_DOMAIN_BITS`` raise ``BudgetExceeded`` before enumerating.
    """
    domain_bits = params.sk_bits
    ForgeryBudget().check(domain_bits)
    index: dict[bytes, array] = {}
    for v, y in enumerate(domain_images(lamport_steps(params.n, domain_bits), domain_bits)):
        members = index.get(y)
        if members is None:
            members = index[y] = array("I")
        members.append(v)
    return index


def lamport_preimages(
    params: LamportParams,
    y0: BitString,
    budget: ForgeryBudget,
    index: Optional[dict[bytes, array]] = None,
) -> PreimageSet:
    bits = params.sk_bits
    budget.check(bits)
    if index is None:
        return _scan(lamport_steps(params.n, bits), y0, bits)
    members = tuple(BitString.from_int(v, bits) for v in index.get(y0.payload, ()))
    return PreimageSet(target=y0, domain_bits=bits, members=members)


def forge_lamport(
    pk: LamportPublicKey,
    known_m: int,
    known_sig: LamportSignature,
    m_star: int,
    budget: ForgeryBudget,
    rng: random.Random,
    index: Optional[dict[bytes, array]] = None,
) -> LamportSignature:
    """Invert the public half for the target bit and emit a random preimage.

    The output verifies unconditionally; whether it coincides with the
    signer's own secret half is exactly the detection-failure event.
    """
    if m_star == known_m:
        raise DomainError("target message must differ from the signed one")
    y0 = pk.half(m_star)
    if index is None:
        ps = lamport_preimages(pk.params, y0, budget)
        return LamportSignature(sample_preimage(ps, rng))
    budget.check(pk.params.sk_bits)
    v = _draw(index.get(y0.payload, ()), y0, rng)
    return LamportSignature(BitString.from_int(v, pk.params.sk_bits))


def chain_preimages(
    params: WotsParams,
    r: Seed,
    b_star: int,
    pk_value: BitString,
    budget: ForgeryBudget,
) -> PreimageSet:
    """All position-b_star values whose finished chain reaches pk_value,
    by a full sweep of the composed map from position b_star to the top.
    """
    domain_bits = params.value_bits(b_star)
    budget.check(domain_bits)
    return _scan(chain_steps(params, r, b_star, params.w - 1), pk_value, domain_bits)


def forge_wots(
    pk: WotsPublicKey,
    known_M: BitString,
    known_sig: WotsSignature,
    M_star: BitString,
    budget: ForgeryBudget,
    rng: random.Random,
) -> WotsSignature:
    """Forge a signature for M_star from one observed message-signature pair.

    Positions whose target depth is not below the known depth are
    advanced along the chain from the known value.  Positions forced
    downward by the checksum are inverted exhaustively and a uniformly
    random member of the preimage set is taken.
    """
    params = pk.params
    if M_star == known_M:
        raise DomainError("target message must differ from the signed one")
    b = extend(known_M, params)
    b_star = extend(M_star, params)
    sigma_star = []
    for i in range(params.l):
        if b_star[i] >= b[i]:
            sigma_star.append(chain(params, pk.r, b[i], b_star[i], known_sig.sigma[i]))
        else:
            ps = chain_preimages(params, pk.r, b_star[i], pk.pk[i], budget)
            sigma_star.append(sample_preimage(ps, rng))
    return WotsSignature(tuple(sigma_star))


def forge(
    pk, M, sigma, M_star, budget: ForgeryBudget, rng: random.Random,
    index: Optional[dict[bytes, array]] = None,
):
    """Forge a signature for M_star under pk's scheme from one signed pair
    (M, sigma); index is a Lamport preimage index, if one was built."""
    if pk.params.scheme == "lamport":
        return forge_lamport(pk, M, sigma, M_star, budget, rng, index=index)
    return forge_wots(pk, M, sigma, M_star, budget, rng)
