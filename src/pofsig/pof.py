"""Proof-of-forgery evidence and the signer-side detection step.

Evidence is two distinct signatures valid for one message (the paper's
type II): the signer re-signs the forged message deterministically and
exhibits the mismatch, which always shows a collision of the oracle.
One signature valid for two messages (type I) shows none for these
undigested schemes: a Lamport key with equal public halves passes it
with its own signature, and no WOTS signature passes it at delta > 0,
where each depth fixes its value's width.  So type II is the one kind.
"""

from __future__ import annotations

from . import lamport, wots
from .core import BitString, KeyPair, Params, PublicKey, Record, Signature
from .errors import NotAValidSignature, PofsigError
from .oracle import SEED_BYTES

# The one place a scheme name is mapped to its keygen, sign and verify;
# every caller looks the scheme up by params.scheme.
SCHEMES = {"lamport": lamport, "wots": wots}


def _bit_strings(values, bit_len=None) -> bool:
    """values is a tuple of BitStrings, each bit_len bits wide unless
    bit_len is None; a plain loop, the fastest test of the few values a
    key or signature holds."""
    if not isinstance(values, tuple):
        return False
    for v in values:
        if not isinstance(v, BitString) or (bit_len is not None and v.bit_len != bit_len):
            return False
    return True


def _key_shaped(pk) -> bool:
    """pk is a PublicKey holding its scheme's count of n-bit BitStrings,
    two Lamport halves or l WOTS chain tops, and its scheme's seed: none
    for Lamport, SEED_BYTES bytes for WOTS."""
    if not (isinstance(pk, PublicKey) and isinstance(pk.params, Params)):
        return False
    if pk.params.scheme == "lamport":
        seeded, count = pk.r is None, 2
    else:
        seeded, count = isinstance(pk.r, bytes) and len(pk.r) == SEED_BYTES, pk.params.l
    return seeded and _bit_strings(pk.pk, pk.params.n) and len(pk.pk) == count


def scheme_verify(pk: PublicKey, sig: Signature, M) -> int:
    """Verify under pk's scheme; a malformed or cross-scheme input counts as 0:
    a key not shaped as its scheme's, anything but a Signature holding a
    tuple of BitStrings, or the other scheme's signature, which fails the
    verifier's own shape checks."""
    if not (_key_shaped(pk) and isinstance(sig, Signature) and _bit_strings(sig.sigma)):
        return 0
    try:
        return SCHEMES[pk.params.scheme].verify(pk, sig, M)
    except PofsigError:
        return 0


class PofEvidenceII(Record):
    __slots__ = ("pk", "sigma_tilde_star", "sigma_star", "M_star")


def verify_pof2(E: PofEvidenceII) -> int:
    """1 iff both signatures verify for the message and differ in some bit.

    Needs nothing beyond E itself (the public key travels inside), so
    any third party can check it.
    """
    if E.sigma_tilde_star == E.sigma_star:
        return 0
    return (scheme_verify(E.pk, E.sigma_tilde_star, E.M_star)
            and scheme_verify(E.pk, E.sigma_star, E.M_star))


class DetectionOutcome(Record):
    """Result of the signer's detection step: evidence or an explicit miss."""

    __slots__ = ("detected", "evidence")
    _defaults = {"evidence": None}


def detect_forgery(kp: KeyPair, M_star, sigma_star: Signature) -> DetectionOutcome:
    """Re-sign the forged message and compare against the received signature.

    Returns evidence when the legitimate signature differs; returns an
    undetectable outcome when the adversary reproduced it exactly (the
    epsilon-failure case of the detection bounds).  Raises
    NotAValidSignature when the input pair does not verify at all.
    """
    pk = kp.public()
    if not scheme_verify(pk, sigma_star, M_star):
        raise NotAValidSignature("received pair does not verify; nothing to detect")
    sigma_tilde_star = SCHEMES[kp.params.scheme].sign(kp, M_star)
    if sigma_tilde_star == sigma_star:
        return DetectionOutcome(detected=False)
    return DetectionOutcome(
        detected=True,
        evidence=PofEvidenceII(
            pk=pk,
            sigma_tilde_star=sigma_tilde_star,
            sigma_star=sigma_star,
            M_star=M_star,
        ),
    )
