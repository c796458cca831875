"""Exception hierarchy shared across the package."""

import re


def one_short_line(text: str) -> str:
    """text as one line of at most 200 characters with digit runs over 20
    elided, so an echoed input cannot flood stderr."""
    text = " ".join(text.splitlines())
    text = re.sub(r"\d{21,}", lambda m: f"<{len(m[0])}-digit number>", text)
    return text if len(text) <= 200 else text[:197] + "..."


class PofsigError(Exception):
    """Base class for all package-specific errors; its text, which the CLI
    prints after ``error:``, is ``one_short_line``."""

    def __str__(self) -> str:
        return one_short_line(super().__str__())


class InvalidParams(PofsigError):
    """Scheme parameters violate a structural constraint."""


class FormatError(PofsigError):
    """A serialized file is malformed; message carries line/field diagnostics."""


class DomainError(PofsigError):
    """A bit string has the wrong length for the operation's declared domain."""


class EntropyError(PofsigError):
    """The injected randomness source failed."""


class BudgetExceeded(PofsigError):
    """An exhaustive search would exceed the configured domain-size cap."""


class EmptyPreimageSet(PofsigError):
    """Requested a preimage from a set that has no members."""


class NotAValidSignature(PofsigError):
    """Forgery detection was invoked on a pair that does not even verify."""
