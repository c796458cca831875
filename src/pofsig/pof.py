"""Proof-of-forgery evidence sets and the signer-side detection step.

Type I evidence: one signature valid for two distinct messages (arises
in digest-wrapped schemes; here only verified, never produced).
Type II evidence: two distinct signatures valid for one message, which
is what a signer constructs after receiving a forgery, by deterministically
re-signing the forged message and exhibiting the mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import lamport, wots
from .core import BitString, KeyPair, PublicKey, Signature
from .errors import NotAValidSignature, PofsigError

# The one place a scheme name is mapped to its keygen, sign and verify;
# every caller looks the scheme up by params.scheme.
SCHEMES = {"lamport": lamport, "wots": wots}


def scheme_verify(pk: PublicKey, sig: Signature, M) -> int:
    """Verify under pk's scheme; a malformed or cross-scheme input counts as 0:
    anything but a Signature holding a tuple of BitStrings, or the other
    scheme's signature, which fails the verifier's own shape checks."""
    if not (isinstance(sig, Signature) and isinstance(sig.sigma, tuple)
            and all(isinstance(v, BitString) for v in sig.sigma)):
        return 0
    try:
        return SCHEMES[pk.params.scheme].verify(pk, sig, M)
    except PofsigError:
        return 0


@dataclass(frozen=True)
class PofEvidenceI:
    pk: PublicKey
    sigma_star: Signature
    M: object
    M_star: object


@dataclass(frozen=True)
class PofEvidenceII:
    pk: PublicKey
    sigma_tilde_star: Signature
    sigma_star: Signature
    M_star: object


def verify_pof1(E: PofEvidenceI) -> int:
    """1 iff the single signature verifies for both messages and they differ."""
    if E.M == E.M_star:
        return 0
    return (scheme_verify(E.pk, E.sigma_star, E.M)
            and scheme_verify(E.pk, E.sigma_star, E.M_star))


def verify_pof2(E: PofEvidenceII) -> int:
    """1 iff both signatures verify for the message and differ in some bit.

    Needs nothing beyond E itself (the public key travels inside), so
    any third party can check it.
    """
    if E.sigma_tilde_star == E.sigma_star:
        return 0
    return (scheme_verify(E.pk, E.sigma_tilde_star, E.M_star)
            and scheme_verify(E.pk, E.sigma_star, E.M_star))


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of the signer's detection step: evidence or an explicit miss."""

    detected: bool
    evidence: Optional[PofEvidenceII] = None


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
