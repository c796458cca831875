"""Line-oriented text format for keys, signatures, and evidence.

Layout (UTF-8, LF line endings, trailing LF required, no trailing
whitespace)::

    FDA-SIG v1
    kind: <secret-key|public-key|signature|pof-1|pof-2>
    scheme: <lamport|wots>
    n: <int>
    delta: <int>
    [L: <int>]        (wots only)
    [nu: <int>]       (wots only)
    <field>: <lowercase hex>     one line per bit-string field

Hex encodes the MSB-first packed payload; bit lengths are implied by
the parameters (and, for signatures, by the embedded message), so a
parser can reject any truncated or padded field exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from . import lamport, wots
from .core import BitString, LamportParams, WotsParams, derive_wots_params
from .errors import FormatError, InvalidParams
from .oracle import SEED_BYTES, Seed, chain
from .pof import SCHEMES, PofEvidenceI, PofEvidenceII

HEADER = "FDA-SIG v1"
KINDS = ("secret-key", "public-key", "signature", "pof-1", "pof-2")

_HEX_RE = re.compile(r"^(?:[0-9a-f]{2})*$")
_INT_RE = re.compile(r"^(?:0|[1-9][0-9]*)$")

@dataclass(frozen=True)
class SignatureFile:
    """A parsed signature file: the scheme parameters, the message it was
    produced for, and the signature itself."""

    params: Union[LamportParams, WotsParams]
    message: object  # int bit for lamport, BitString for wots
    signature: Union[lamport.LamportSignature, wots.WotsSignature]


# ---------------------------------------------------------------------------
# Writing


def _param_lines(params) -> list[str]:
    lines = [f"n: {params.n}", f"delta: {params.delta}"]
    if isinstance(params, WotsParams):
        lines += [f"L: {params.L}", f"nu: {params.nu}"]
    return lines


def _render(kind: str, params, fields: list[tuple[str, BitString]]) -> str:
    lines = [HEADER, f"kind: {kind}", f"scheme: {params.scheme}"]
    lines += _param_lines(params)
    lines += [f"{name}: {value.hex()}" for name, value in fields]
    return "\n".join(lines) + "\n"


def _message_field(name: str, message, params) -> tuple[str, BitString]:
    if isinstance(params, LamportParams):
        return name, BitString.from_int(message, 1)
    return name, message


def _seed_field(r: Seed) -> tuple[str, BitString]:
    return "r", BitString(8 * SEED_BYTES, bytes(r))


def _pk_fields(pk) -> list[tuple[str, BitString]]:
    if isinstance(pk, lamport.LamportPublicKey):
        return [("pk.0", pk.pk0), ("pk.1", pk.pk1)]
    return [_seed_field(pk.r)] + [(f"pk.{i + 1}", p) for i, p in enumerate(pk.pk)]


def _sig_fields(name: str, sig) -> list[tuple[str, BitString]]:
    if isinstance(sig, lamport.LamportSignature):
        return [(name, sig.sigma)]
    return [(f"{name}.{i + 1}", s) for i, s in enumerate(sig.sigma)]


def dump_secret_key(kp) -> str:
    if isinstance(kp, lamport.LamportKeyPair):
        fields = [("sk.0", kp.sk0), ("sk.1", kp.sk1)] + _pk_fields(kp.public())
    else:
        fields = [_seed_field(kp.r)] + [(f"sk.{i + 1}", s) for i, s in enumerate(kp.sk)]
    return _render("secret-key", kp.params, fields)


def dump_public_key(pk) -> str:
    return _render("public-key", pk.params, _pk_fields(pk))


def dump_signature(sig, message, params) -> str:
    fields = [_message_field("message", message, params)] + _sig_fields("sigma", sig)
    return _render("signature", params, fields)


def dump_pof1(E: PofEvidenceI) -> str:
    params = E.pk.params
    fields = _pk_fields(E.pk)
    fields.append(_message_field("m", E.M, params))
    fields.append(_message_field("m_star", E.M_star, params))
    fields += _sig_fields("sigma_star", E.sigma_star)
    return _render("pof-1", params, fields)


def dump_pof2(E: PofEvidenceII) -> str:
    params = E.pk.params
    fields = _pk_fields(E.pk)
    fields.append(_message_field("m_star", E.M_star, params))
    fields += _sig_fields("sigma_star", E.sigma_star)
    fields += _sig_fields("sigma_tilde_star", E.sigma_tilde_star)
    return _render("pof-2", params, fields)


# ---------------------------------------------------------------------------
# Reading


class _Parser:
    def __init__(self, text: str):
        if not text.endswith("\n"):
            raise FormatError("missing trailing newline")
        if "\r" in text:
            raise FormatError("CR characters are not allowed")
        self.lines = text.split("\n")[:-1]
        self.pos = 0

    def _next(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError(f"line {self.pos + 1}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        if line != line.rstrip():
            raise FormatError(f"line {self.pos}: trailing whitespace")
        return line

    def expect_header(self) -> None:
        line = self._next()
        if line == HEADER:
            return
        if line.startswith("FDA-SIG "):
            raise FormatError(f"line 1: unsupported version {line[8:]!r}")
        raise FormatError("line 1: not a FDA-SIG file")

    def named(self, name: str) -> str:
        line = self._next()
        prefix = f"{name}: "
        if not line.startswith(prefix):
            raise FormatError(f"line {self.pos}: expected field {name!r}")
        return line[len(prefix):]

    def named_int(self, name: str) -> int:
        value = self.named(name)
        if not _INT_RE.match(value):
            raise FormatError(f"line {self.pos}: field {name!r} is not an integer")
        return int(value)

    def named_bits(self, name: str, bit_len: int) -> BitString:
        value = self.named(name)
        if not _HEX_RE.match(value):
            raise FormatError(f"line {self.pos}: field {name!r} is not lowercase hex")
        payload = bytes.fromhex(value)
        if len(payload) != (bit_len + 7) // 8:
            raise FormatError(
                f"line {self.pos}: field {name!r} has {len(payload)} bytes, "
                f"expected {(bit_len + 7) // 8} for {bit_len} bits"
            )
        try:
            return BitString(bit_len, payload)
        except InvalidParams as exc:
            raise FormatError(f"line {self.pos}: field {name!r}: {exc}") from exc

    def done(self) -> None:
        if self.pos != len(self.lines):
            raise FormatError(f"line {self.pos + 1}: unexpected extra content")


def _parse_params(p: _Parser, scheme: str):
    n = p.named_int("n")
    delta = p.named_int("delta")
    try:
        if scheme == "lamport":
            return LamportParams(n, delta)
        L = p.named_int("L")
        nu = p.named_int("nu")
        return derive_wots_params(n, delta, L, nu)
    except InvalidParams as exc:
        raise FormatError(f"invalid parameters: {exc}") from exc


def _parse_message(p: _Parser, name: str, params):
    if isinstance(params, LamportParams):
        return p.named_bits(name, 1).to_int()
    return p.named_bits(name, params.L)


def _parse_seed(p: _Parser) -> Seed:
    return Seed(p.named_bits("r", 8 * SEED_BYTES).payload)


def _parse_signature(p: _Parser, name: str, params, message):
    if isinstance(params, LamportParams):
        return lamport.LamportSignature(p.named_bits(name, params.sk_bits))
    b = wots.extend(message, params)
    sigma = tuple(
        p.named_bits(f"{name}.{i + 1}", params.value_bits(b[i]))
        for i in range(params.l)
    )
    return wots.WotsSignature(sigma)


def _parse_public_fields(p: _Parser, params):
    if isinstance(params, LamportParams):
        pk0 = p.named_bits("pk.0", params.n)
        pk1 = p.named_bits("pk.1", params.n)
        return lamport.LamportPublicKey(params, pk0, pk1)
    r = _parse_seed(p)
    pk = tuple(p.named_bits(f"pk.{i + 1}", params.n) for i in range(params.l))
    return wots.WotsPublicKey(params, r, pk)


def loads(text: str, kinds=KINDS):
    """Parse an FDA-SIG file of one of the given kinds into its typed object.

    Returns LamportKeyPair/WotsKeyPair for secret keys, the public-key
    types for public keys, SignatureFile for signatures, and the
    evidence types for pof-1/pof-2.  A file of another kind raises
    FormatError.
    """
    p = _Parser(text)
    p.expect_header()
    kind = p.named("kind")
    if kind not in KINDS:
        raise FormatError(f"unknown kind {kind!r}")
    if kind not in kinds:
        raise FormatError(f"is a {kind} file, expected {' or '.join(kinds)}")
    scheme = p.named("scheme")
    if scheme not in SCHEMES:
        raise FormatError(f"unknown scheme {scheme!r}")
    params = _parse_params(p, scheme)

    if kind == "secret-key":
        if scheme == "lamport":
            sk0 = p.named_bits("sk.0", params.sk_bits)
            sk1 = p.named_bits("sk.1", params.sk_bits)
            pk = _parse_public_fields(p, params)
            p.done()
            if (pk.pk0, pk.pk1) != tuple(lamport.hash_secret(params, s) for s in (sk0, sk1)):
                raise FormatError("pk.0/pk.1 do not match the hashes of sk.0/sk.1")
            return lamport.LamportKeyPair(params, sk0, sk1, pk.pk0, pk.pk1)
        r = _parse_seed(p)
        sk = tuple(p.named_bits(f"sk.{i + 1}", params.sk_bits) for i in range(params.l))
        p.done()
        pk = tuple(chain(params, r, 0, params.w - 1, s) for s in sk)
        return wots.WotsKeyPair(params, r, sk, pk)

    if kind == "public-key":
        pk = _parse_public_fields(p, params)
        p.done()
        return pk

    if kind == "signature":
        message = _parse_message(p, "message", params)
        sig = _parse_signature(p, "sigma", params, message)
        p.done()
        return SignatureFile(params=params, message=message, signature=sig)

    if kind == "pof-1":
        pk = _parse_public_fields(p, params)
        m = _parse_message(p, "m", params)
        m_star = _parse_message(p, "m_star", params)
        sig = _parse_signature(p, "sigma_star", params, m_star)
        p.done()
        return PofEvidenceI(pk=pk, sigma_star=sig, M=m, M_star=m_star)

    # pof-2, the last of KINDS
    pk = _parse_public_fields(p, params)
    m_star = _parse_message(p, "m_star", params)
    sig_star = _parse_signature(p, "sigma_star", params, m_star)
    sig_tilde = _parse_signature(p, "sigma_tilde_star", params, m_star)
    p.done()
    return PofEvidenceII(
        pk=pk, sigma_tilde_star=sig_tilde, sigma_star=sig_star, M_star=m_star
    )


def load_path(path, kinds=KINDS) -> object:
    """loads() on a file's text; a FormatError names the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    try:
        return loads(text, kinds)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def dump_path(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
