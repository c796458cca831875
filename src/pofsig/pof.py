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
from .core import KeyPair, Params, PublicKey, Record, Signature
from .errors import NotAValidSignature

# The one place a scheme name is mapped to its keygen, sign and verify;
# every caller looks the scheme up by params.scheme.
SCHEMES = {"lamport": lamport, "wots": wots}


def scheme_verify(pk: PublicKey, sig: Signature, M) -> int:
    """Verify under pk's scheme; 0 for anything but a PublicKey with scheme
    parameters, the one test that looking the scheme up needs.  The
    scheme's own verify answers every other input, the other scheme's key
    values, message or signature included, and raises nothing."""
    if not (isinstance(pk, PublicKey) and isinstance(pk.params, Params)):
        return 0
    return SCHEMES[pk.params.scheme].verify(pk, sig, M)


class PofEvidenceII(Record):
    __slots__ = ("pk", "sigma_tilde_star", "sigma_star", "M_star")


def verify_pof2(E: PofEvidenceII) -> int:
    """1 iff both signatures verify for the message and differ in some bit;
    0 for anything that is not a PofEvidenceII.  The signatures are compared
    only once both verify, so the comparison is always of two Signatures.

    Needs nothing beyond E itself (the public key travels inside), so
    any third party can check it.
    """
    if not isinstance(E, PofEvidenceII):
        return 0
    pk, M, tilde, star = E.pk, E.M_star, E.sigma_tilde_star, E.sigma_star
    both = scheme_verify(pk, tilde, M) and scheme_verify(pk, star, M)
    return 1 if both and tilde != star else 0


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
