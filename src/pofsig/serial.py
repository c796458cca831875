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

``layout`` is the one definition of each kind's field lines: names,
order and bit widths, set by the parameters and, for signatures and
evidence, the message.  Hex encodes the MSB-first packed payload.

The writer defines the format: the text ``dump_*`` writes for an object
is the only text accepted for it.  ``loads`` reads the message, then the
layout's fields by name, builds the object, writes it back, and refuses
the file with a FormatError naming the first line that differs, so
padding, reordering, duplicates, case changes, CR characters or a
missing final newline are all refused by the same rule.  A ``dump_*``
refuses, with FormatError, what ``loads`` never builds: an object of
another class or without parameters; values other than one BitString
of each layout line's width (a Lamport key with a seed, a value short
or too many or of the wrong width, a message that is not a bit or an
L-bit string, values not in a tuple); a secret key whose pk is not the
public values of its sk.  ``loads`` hashes a secret key's sk once: into
the pk of a WOTS file, which holds no pk lines, or to check a Lamport
file's pk lines; its write-back renders the key as ``dump_secret_key``
does, without checking the pk again.
"""

from __future__ import annotations

from . import wots
from .core import BitString, KeyPair, LamportParams, Params, PublicKey, Record, Signature, WotsParams
from .errors import FormatError, InvalidParams
from .oracle import SEED_BYTES, Seed
from .pof import SCHEMES, PofEvidenceII

HEADER = "FDA-SIG v1"
KINDS = ("secret-key", "public-key", "signature", "pof-2")

# Each scheme's parameter class and the parameter lines it writes, in order.
_PARAMS = {"lamport": (LamportParams, ("n", "delta")),
           "wots": (WotsParams, ("n", "delta", "L", "nu"))}
_MESSAGE = {"signature": "message", "pof-2": "m_star"}  # the message line of each kind


class SignatureFile(Record):
    """A parsed signature file: the scheme parameters, the message it was
    produced for (an int bit for Lamport, a BitString for WOTS), and the
    signature itself."""

    __slots__ = ("params", "message", "signature")


def _fits(value, bit_len: int) -> bool:
    return isinstance(value, BitString) and value.bit_len == bit_len


def layout(kind: str, params, message=None) -> list[tuple[str, int]]:
    """The field lines of a kind's file under params, in order, as
    (name, bit width): what the writer renders and the reader reads.

    A Lamport key has no seed and numbers its two halves from 0; its
    secret key holds sk and pk, its signature the one line ``sigma``.  A
    WOTS key has a seed ``r`` and numbers its l chains from 1; its secret
    key holds sk alone, and each signature value is as wide as its
    chain's depth for message.  A message that is not an L-bit BitString
    selects no depths: its own line refuses it.
    """
    lamport = params.scheme == "lamport"
    count = 2 if lamport else params.l

    def numbered(prefix, widths):
        return [(f"{prefix}.{i}", w) for i, w in enumerate(widths, 0 if lamport else 1)]

    seed = [] if lamport else [("r", 8 * SEED_BYTES)]
    pk = seed + numbered("pk", [params.n] * count)
    if kind == "public-key":
        return pk
    if kind == "secret-key":
        return seed + numbered("sk", [params.sk_bits] * count) + (pk if lamport else [])
    depths = () if lamport or not _fits(message, params.L) else wots.extend(message, params)

    def sigma(prefix):
        if lamport:
            return [(prefix, params.sk_bits)]
        return numbered(prefix, [params.value_bits(d) for d in depths])

    signed = [(_MESSAGE[kind], 1 if lamport else params.L)]
    if kind == "signature":
        return signed + sigma("sigma")
    return pk + signed + sigma("sigma_star") + sigma("sigma_tilde_star")


# Writing: each dump_* flattens its object, and _render checks the values


def _refuse_unless(shaped: bool, kind: str) -> None:
    """FormatError for an object not shaped as loads builds it: it has no text."""
    if not shaped:
        raise FormatError(f"{kind} is not shaped as its parameters say")


def _tuple(values) -> list:
    """values as a list; [None], which fits no line, unless values is a
    tuple, as loads builds it."""
    return list(values) if isinstance(values, tuple) else [None]


def _seed(r) -> list:
    """The value of a key's r line: none for a key without a seed, and
    None, which fits no line, for a seed that is not bytes."""
    return [] if r is None else [BitString(8 * len(r), bytes(r)) if isinstance(r, bytes) else None]


def _sigma(sig) -> list:
    return _tuple(sig.sigma) if isinstance(sig, Signature) else [None]


def _message_value(message, params):
    """The message line's value: a Lamport bit as a 1-bit BitString."""
    if not (isinstance(params, Params) and params.scheme == "lamport"):
        return message
    return BitString.from_int(message, 1) if isinstance(message, int) and message in (0, 1) else None


def _render(kind: str, params, values: list, message=None) -> str:
    """The text of a kind's file holding values, after the writer's shape
    check: scheme parameters, and one BitString of each width the layout
    gives, in order."""
    lines = layout(kind, params, message) if isinstance(params, Params) else None
    _refuse_unless(lines is not None and len(values) == len(lines)
                   and all(_fits(v, w) for v, (_, w) in zip(values, lines)), kind)
    text = [HEADER, f"kind: {kind}", f"scheme: {params.scheme}"]
    text += [f"{name}: {getattr(params, name)}" for name in _PARAMS[params.scheme][1]]
    text += [f"{name}: {value.hex()}" for (name, _), value in zip(lines, values)]
    return "\n".join(text) + "\n"


def _secret_key_text(kp: KeyPair) -> str:
    """The secret-key file of kp, whose pk is taken as its own."""
    _refuse_unless(isinstance(kp, KeyPair), "secret-key")
    lamport = isinstance(kp.params, Params) and kp.params.scheme == "lamport"
    values = _seed(kp.r) + _tuple(kp.sk) + _tuple(kp.pk if lamport else ())  # WOTS: no pk lines
    return _render("secret-key", kp.params, values)


def _own_pk(kp: KeyPair) -> KeyPair:
    """kp, once its pk is checked to be the public values of its sk."""
    if kp.pk != SCHEMES[kp.params.scheme].public_values(kp.params, kp.r, kp.sk):
        raise FormatError("the pk values do not match the sk values")
    return kp


def dump_secret_key(kp: KeyPair) -> str:
    text = _secret_key_text(kp)
    _own_pk(kp)
    return text


def dump_public_key(pk: PublicKey) -> str:
    _refuse_unless(isinstance(pk, PublicKey), "public-key")
    return _render("public-key", pk.params, _seed(pk.r) + _tuple(pk.pk))


def dump_signature(sig: Signature, message, params) -> str:
    return _render("signature", params, [_message_value(message, params)] + _sigma(sig), message)


def dump_pof2(E: PofEvidenceII) -> str:
    _refuse_unless(isinstance(E, PofEvidenceII) and isinstance(E.pk, PublicKey), "pof-2")
    values = _seed(E.pk.r) + _tuple(E.pk.pk) + [_message_value(E.M_star, E.pk.params)]
    values += _sigma(E.sigma_star) + _sigma(E.sigma_tilde_star)
    return _render("pof-2", E.pk.params, values, E.M_star)


# Reading: the layout's fields by name, then the object against its own text


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


def _build(kind: str, params, message, values: dict):
    """The object of a kind's file from its values, by field name prefix."""
    r = Seed(values["r"][0].payload) if "r" in values else None
    if kind == "secret-key":  # a WOTS file holds no pk lines: they are computed
        if "pk" in values:
            return _own_pk(KeyPair(params, r, values["sk"], values["pk"]))
        return KeyPair(params, r, values["sk"], wots.public_values(params, r, values["sk"]))
    if kind == "signature":
        return SignatureFile(params, message, Signature(values["sigma"]))
    pk = PublicKey(params, r, values["pk"])
    if kind == "public-key":
        return pk
    return PofEvidenceII(pk, Signature(values["sigma_tilde_star"]),
                         Signature(values["sigma_star"]), message)


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
    cls, names = _PARAMS[scheme]
    try:
        params = cls(*(_parse(fields, name, int) for name in names))
    except InvalidParams as exc:
        raise FormatError(f"invalid parameters: {exc}") from exc
    message = None
    if kind in _MESSAGE:
        name = _MESSAGE[kind]
        message = _bits(fields, name, dict(layout(kind, params))[name])
        if scheme == "lamport":
            message = message.to_int()
    values = {}
    for name, width in layout(kind, params, message):
        values.setdefault(name.partition(".")[0], []).append(_bits(fields, name, width))
    obj = _build(kind, params, message, {prefix: tuple(v) for prefix, v in values.items()})
    written = {"secret-key": _secret_key_text, "public-key": dump_public_key, "pof-2": dump_pof2,
               "signature": lambda f: dump_signature(f.signature, f.message, f.params)}[kind](obj)
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
