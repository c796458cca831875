"""Line-oriented text format for keys, signatures, and evidence.

Layout (UTF-8, LF line endings)::

    FDA-SIG v1
    kind: <secret-key|public-key|signature|pof-2>
    scheme: <lamport|wots>
    n: <int>
    delta: <int>
    [L: <int>]        (wots only)
    [nu: <int>]       (wots only)
    <field>: <lowercase hex>     one line per bit-string field

Hex encodes the MSB-first packed payload; bit lengths are implied by
the parameters (and, for signatures, by the embedded message).

The writer defines the format: the text ``dump_*`` writes for an object
is the only text accepted for it.  ``loads`` reads the fields by name,
builds the object, writes it back, and refuses the file with a
FormatError naming the first line that differs, so padding, reordering,
duplicates, case changes, CR characters or a missing final newline are
all refused by the same rule.  A ``dump_*`` refuses, with FormatError,
an object not shaped as its parameters say: ``loads`` builds no other.
"""

from __future__ import annotations

from . import lamport, wots
from .core import (
    BitString, KeyPair, LamportParams, PublicKey, Record, Signature, derive_wots_params,
)
from .errors import FormatError, InvalidParams
from .oracle import SEED_BYTES, Seed, chain
from .pof import SCHEMES, PofEvidenceII, _key_shaped

HEADER = "FDA-SIG v1"
KINDS = ("secret-key", "public-key", "signature", "pof-2")


class SignatureFile(Record):
    """A parsed signature file: the scheme parameters, the message it was
    produced for (an int bit for Lamport, a BitString for WOTS), and the
    signature itself."""

    __slots__ = ("params", "message", "signature")


# ---------------------------------------------------------------------------
# Writing


def _param_lines(params) -> list[str]:
    lines = [f"n: {params.n}", f"delta: {params.delta}"]
    if params.scheme == "wots":
        lines += [f"L: {params.L}", f"nu: {params.nu}"]
    return lines


def _render(kind: str, params, fields: list[tuple[str, BitString]]) -> str:
    lines = [HEADER, f"kind: {kind}", f"scheme: {params.scheme}"]
    lines += _param_lines(params)
    lines += [f"{name}: {value.hex()}" for name, value in fields]
    return "\n".join(lines) + "\n"


def _message_field(name: str, message, params) -> tuple[str, BitString]:
    if params.scheme == "lamport":
        return name, BitString.from_int(message, 1)
    return name, message


def _names(prefix: str, params, count: int) -> list[str]:
    """Field names of count values: Lamport numbers its two halves from 0,
    WOTS its l chains from 1."""
    first = 0 if params.scheme == "lamport" else 1
    return [f"{prefix}.{i}" for i in range(first, first + count)]


def _numbered(prefix: str, values, params) -> list[tuple[str, BitString]]:
    return list(zip(_names(prefix, params, len(values)), values))


def _seed_fields(key) -> list[tuple[str, BitString]]:
    """The WOTS seed r; a Lamport key has none."""
    return [] if key.r is None else [("r", BitString(8 * SEED_BYTES, bytes(key.r)))]


def _pk_fields(pk: PublicKey) -> list[tuple[str, BitString]]:
    return _seed_fields(pk) + _numbered("pk", pk.pk, pk.params)


def _sig_fields(prefix: str, sig: Signature, params) -> list[tuple[str, BitString]]:
    if params.scheme == "lamport":
        return [(prefix, sig.sigma[0])]
    return _numbered(prefix, sig.sigma, params)


def _shaped(values, widths) -> bool:
    """values is a tuple of BitStrings, one of each bit length in widths."""
    return (isinstance(values, tuple) and len(values) == len(widths)
            and all(isinstance(v, BitString) and v.bit_len == w for v, w in zip(values, widths)))


def _refuse_unless(shaped: bool, what: str) -> None:
    """FormatError for an object not shaped as loads builds it: it has no text."""
    if not shaped:
        raise FormatError(f"{what} is not shaped as its parameters say")


def _refuse_unless_key(pk) -> None:
    """FormatError unless pof._key_shaped accepts pk and its values are n bits."""
    _refuse_unless(_key_shaped(pk) and _shaped(pk.pk, (pk.params.n,) * len(pk.pk)), "key")


def _refuse_unless_signature(sig, message, params) -> None:
    """FormatError unless sig holds one sk_bits-bit Lamport half, or l WOTS
    values, each as wide as its chain's depth for message."""
    widths = ((params.sk_bits,) if params.scheme == "lamport"
              else [params.value_bits(d) for d in wots.extend(message, params)])
    _refuse_unless(isinstance(sig, Signature) and _shaped(sig.sigma, widths), "signature")


def dump_secret_key(kp: KeyPair) -> str:
    _refuse_unless_key(kp.public())
    _refuse_unless(_shaped(kp.sk, (kp.params.sk_bits,) * len(kp.pk)), "secret key")
    fields = _seed_fields(kp) + _numbered("sk", kp.sk, kp.params)
    if kp.params.scheme == "lamport":
        fields += _pk_fields(kp.public())
    return _render("secret-key", kp.params, fields)


def dump_public_key(pk) -> str:
    _refuse_unless_key(pk)
    return _render("public-key", pk.params, _pk_fields(pk))


def dump_signature(sig, message, params) -> str:
    _refuse_unless_signature(sig, message, params)
    fields = [_message_field("message", message, params)] + _sig_fields("sigma", sig, params)
    return _render("signature", params, fields)


def dump_pof2(E: PofEvidenceII) -> str:
    params = E.pk.params
    _refuse_unless_key(E.pk)
    _refuse_unless_signature(E.sigma_star, E.M_star, params)
    _refuse_unless_signature(E.sigma_tilde_star, E.M_star, params)
    fields = _pk_fields(E.pk)
    fields.append(_message_field("m_star", E.M_star, params))
    fields += _sig_fields("sigma_star", E.sigma_star, params)
    fields += _sig_fields("sigma_tilde_star", E.sigma_tilde_star, params)
    return _render("pof-2", params, fields)


# ---------------------------------------------------------------------------
# Reading: fields by name, then the object is checked against its own text


def _parse(fields: dict[str, str], name: str, parse=str):
    """parse() of the named field's value; any failure is a FormatError
    naming the field."""
    try:
        return parse(fields[name])
    except KeyError:
        raise FormatError(f"missing field {name!r}") from None
    except (ValueError, InvalidParams) as exc:
        raise FormatError(f"field {name!r}: {exc}") from None


def _bits(fields: dict[str, str], name: str, bit_len: int) -> BitString:
    return _parse(fields, name, lambda value: BitString(bit_len, bytes.fromhex(value)))


def _params(fields: dict[str, str], scheme: str):
    n = _parse(fields, "n", int)
    delta = _parse(fields, "delta", int)
    try:
        if scheme == "lamport":
            return LamportParams(n, delta)
        return derive_wots_params(n, delta, _parse(fields, "L", int), _parse(fields, "nu", int))
    except InvalidParams as exc:
        raise FormatError(f"invalid parameters: {exc}") from exc


def _message(fields: dict[str, str], name: str, params):
    if params.scheme == "lamport":
        return _bits(fields, name, 1).to_int()
    return _bits(fields, name, params.L)


def _seed(fields: dict[str, str]) -> Seed:
    return Seed(_bits(fields, "r", 8 * SEED_BYTES).payload)


def _values(fields: dict[str, str], prefix: str, params, bit_len: int) -> tuple[BitString, ...]:
    count = 2 if params.scheme == "lamport" else params.l
    return tuple(_bits(fields, name, bit_len) for name in _names(prefix, params, count))


def _signature(fields: dict[str, str], prefix: str, params, message) -> Signature:
    if params.scheme == "lamport":
        return Signature((_bits(fields, prefix, params.sk_bits),))
    b = wots.extend(message, params)
    names = _names(prefix, params, len(b))
    return Signature(tuple(_bits(fields, name, params.value_bits(d)) for name, d in zip(names, b)))


def _public_key(fields: dict[str, str], params) -> PublicKey:
    r = None if params.scheme == "lamport" else _seed(fields)
    return PublicKey(params, r, _values(fields, "pk", params, params.n))


def _secret_key(fields: dict[str, str], params) -> KeyPair:
    if params.scheme == "lamport":
        sk = _values(fields, "sk", params, params.sk_bits)
        pk = _values(fields, "pk", params, params.n)
        if pk != tuple(lamport.hash_secret(params, s) for s in sk):
            raise FormatError("pk.0/pk.1 do not match the hashes of sk.0/sk.1")
        return KeyPair(params, None, sk, pk)
    r = _seed(fields)
    sk = _values(fields, "sk", params, params.sk_bits)
    return KeyPair(params, r, sk, tuple(chain(params, r, 0, params.w - 1, s) for s in sk))


def _refuse_unless_written(text: str, written: str) -> None:
    """FormatError unless text is exactly what the writer wrote.

    The message names the first differing line and the field the writer
    puts there, never a value: secret-key files hold secrets.
    """
    if text == written:
        return
    i = next((i for i, (a, b) in enumerate(zip(text, written)) if a != b),
             min(len(text), len(written)))
    k = written.count("\n", 0, i)
    name = written.split("\n")[k].partition(": ")[0]
    if not name:
        raise FormatError(f"line {k + 1}: unexpected extra content")
    raise FormatError(f"line {k + 1}: field {name!r} is not in canonical form")


def loads(text: str, kinds=KINDS):
    """Parse an FDA-SIG file of one of the given kinds into its typed object.

    Returns a KeyPair for secret keys, a PublicKey for public keys,
    SignatureFile for signatures, and PofEvidenceII for pof-2 evidence.
    A file of another kind, or any text other than the one the object
    writes back, raises FormatError.
    """
    header, *body = text.split("\n")
    if header != HEADER:
        if header.startswith("FDA-SIG "):
            raise FormatError(f"line 1: unsupported version {header[8:]!r}")
        raise FormatError("line 1: not a FDA-SIG file")
    fields = dict(line.partition(": ")[::2] for line in body)
    kind = _parse(fields, "kind")
    if kind not in KINDS:
        raise FormatError(f"unknown kind {kind!r}")
    if kind not in kinds:
        raise FormatError(f"is a {kind} file, expected {' or '.join(kinds)}")
    scheme = _parse(fields, "scheme")
    if scheme not in SCHEMES:
        raise FormatError(f"unknown scheme {scheme!r}")
    params = _params(fields, scheme)

    if kind == "secret-key":
        obj = _secret_key(fields, params)
        written = dump_secret_key(obj)
    elif kind == "public-key":
        obj = _public_key(fields, params)
        written = dump_public_key(obj)
    elif kind == "signature":
        message = _message(fields, "message", params)
        sig = _signature(fields, "sigma", params, message)
        obj = SignatureFile(params=params, message=message, signature=sig)
        written = dump_signature(sig, message, params)
    else:
        pk = _public_key(fields, params)
        m_star = _message(fields, "m_star", params)
        sig_star = _signature(fields, "sigma_star", params, m_star)
        sig_tilde = _signature(fields, "sigma_tilde_star", params, m_star)
        obj = PofEvidenceII(pk=pk, sigma_tilde_star=sig_tilde,
                            sigma_star=sig_star, M_star=m_star)
        written = dump_pof2(obj)
    _refuse_unless_written(text, written)
    return obj


def load_path(path, kinds=KINDS) -> object:
    """loads() on a file's text; a FormatError names the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return loads(fh.read(), kinds)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def dump_path(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
