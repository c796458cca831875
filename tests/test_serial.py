import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pofsig import lamport, oracle, serial, wots
from pofsig.adversary import ForgeryBudget, forge, forge_lamport
from pofsig.core import (
    BitString, KeyPair, LamportParams, PublicKey, Signature, derive_wots_params,
)
from pofsig.errors import FormatError
from pofsig.pof import SCHEMES, PofEvidenceII, detect_forgery, scheme_verify

LP = LamportParams(8, 4)
WP = derive_wots_params(6, 1, 4, 2)


def lamport_kp(seed=0):
    return lamport.keygen(LP, random.Random(seed))


def wots_kp(seed=0):
    return wots.keygen(WP, random.Random(seed))


class TestRoundTrips:
    def test_lamport_secret_key(self):
        kp = lamport_kp()
        assert serial.loads(serial.dump_secret_key(kp)) == kp

    def test_lamport_public_key(self):
        pk = lamport_kp().public()
        assert serial.loads(serial.dump_public_key(pk)) == pk

    def test_wots_secret_key(self):
        kp = wots_kp()
        loaded = serial.loads(serial.dump_secret_key(kp))
        assert loaded == kp  # pk recomputed from chains must agree

    @pytest.mark.parametrize("kp", [wots_kp(), lamport_kp()], ids=["wots", "lamport"])
    def test_a_secret_key_is_hashed_once_while_loading(self, monkeypatch, kp):
        # l chains of w-1 steps for WOTS, two halves for Lamport: one
        # digest each, as every value here is at most 256 bits wide
        text = serial.dump_secret_key(kp)
        digests = []

        class Counted:
            def __init__(self, data):
                self.h = hashlib.sha256(data)

            def digest(self):
                digests.append(1)
                return self.h.digest()

        monkeypatch.setattr(oracle, "_sha256", Counted)
        assert serial.loads(text) == kp
        params = kp.params
        assert len(digests) == (params.l * (params.w - 1) if params.scheme == "wots" else 2)

    def test_wots_public_key(self):
        pk = wots_kp().public()
        assert serial.loads(serial.dump_public_key(pk)) == pk

    def test_lamport_signature(self):
        kp = lamport_kp()
        sig = lamport.sign(kp, 1)
        text = serial.dump_signature(sig, 1, LP)
        f = serial.loads(text)
        assert (f.params, f.message, f.signature) == (LP, 1, sig)

    def test_wots_signature(self):
        kp = wots_kp()
        M = BitString.from_int(0b1011, 4)
        sig = wots.sign(kp, M)
        f = serial.loads(serial.dump_signature(sig, M, WP))
        assert (f.params, f.message, f.signature) == (WP, M, sig)

    def test_pof2(self):
        kp = lamport_kp(seed=5)
        rng = random.Random(3)
        sigma = lamport.sign(kp, 0)
        forged = forge_lamport(kp.public(), 0, sigma, 1, ForgeryBudget(), rng)
        outcome = detect_forgery(kp, 1, forged)
        assert outcome.detected
        E = outcome.evidence
        assert serial.loads(serial.dump_pof2(E)) == E

    def test_wots_pof2(self):
        rng = random.Random(41)
        kp = wots_kp(seed=41)
        M = BitString.from_int(3, 4)
        M_star = BitString.from_int(12, 4)
        from pofsig.adversary import forge_wots

        forged = forge_wots(
            kp.public(), M, wots.sign(kp, M), M_star, ForgeryBudget(), rng
        )
        outcome = detect_forgery(kp, M_star, forged)
        if outcome.detected:
            E = outcome.evidence
            assert serial.loads(serial.dump_pof2(E)) == E

    def test_many_random_structures(self):
        rng = random.Random(2025)
        for i in range(50):
            kp = lamport.keygen(LP, rng)
            kw = wots.keygen(WP, rng)
            for text in (
                serial.dump_secret_key(kp),
                serial.dump_public_key(kp.public()),
                serial.dump_secret_key(kw),
                serial.dump_public_key(kw.public()),
            ):
                obj = serial.loads(text)
                # re-serializing a secret key must reproduce the exact bytes
                if "secret-key" in text.split("\n")[1]:
                    assert serial.dump_secret_key(obj) == text


class TestMalformed:
    def valid(self):
        return serial.dump_secret_key(lamport_kp())

    def test_truncated_hex(self):
        text = self.valid()
        lines = text.split("\n")
        name, value = lines[5].split(": ")
        lines[5] = f"{name}: {value[:-2]}"
        with pytest.raises(FormatError):
            serial.loads("\n".join(lines))

    def test_unsupported_version(self):
        text = self.valid().replace("FDA-SIG v1", "FDA-SIG v2", 1)
        with pytest.raises(FormatError, match="unsupported version"):
            serial.loads(text)

    def test_not_a_sig_file(self):
        with pytest.raises(FormatError):
            serial.loads("hello\n")

    def test_missing_trailing_newline(self):
        with pytest.raises(FormatError):
            serial.loads(self.valid()[:-1])

    def test_trailing_whitespace(self):
        lines = self.valid().split("\n")
        lines[2] += " "
        with pytest.raises(FormatError):
            serial.loads("\n".join(lines))

    def test_cr_rejected(self):
        with pytest.raises(FormatError):
            serial.loads(self.valid().replace("\n", "\r\n", 1))

    def test_unknown_kind(self):
        text = self.valid().replace("kind: secret-key", "kind: mystery", 1)
        with pytest.raises(FormatError):
            serial.loads(text)

    def test_unknown_scheme(self):
        text = self.valid().replace("scheme: lamport", "scheme: rsa", 1)
        with pytest.raises(FormatError):
            serial.loads(text)

    def test_bad_integer(self):
        text = self.valid().replace("n: 8", "n: 08", 1)
        with pytest.raises(FormatError):
            serial.loads(text)

    def test_uppercase_hex(self):
        lines = self.valid().split("\n")
        name, value = lines[5].split(": ")
        lines[5] = f"{name}: {value.upper()}"
        if value != value.upper():
            with pytest.raises(FormatError):
                serial.loads("\n".join(lines))

    def test_missing_field(self):
        lines = self.valid().split("\n")
        del lines[5]
        with pytest.raises(FormatError):
            serial.loads("\n".join(lines))

    def test_extra_content(self):
        with pytest.raises(FormatError):
            serial.loads(self.valid() + "extra: 00\n")

    def test_nonzero_pad_bits(self):
        # sk fields are 12 bits; set the 4 pad bits of the second byte
        kp = lamport_kp()
        lines = serial.dump_secret_key(kp).split("\n")
        name, value = lines[5].split(": ")
        raw = bytearray(bytes.fromhex(value))
        raw[-1] |= 0x0F
        lines[5] = f"{name}: {bytes(raw).hex()}"
        with pytest.raises(FormatError):
            serial.loads("\n".join(lines))

    def test_invalid_params_combination(self):
        kp = wots_kp()
        text = serial.dump_secret_key(kp).replace("L: 4", "L: 5", 1)
        with pytest.raises(FormatError):
            serial.loads(text)

    @pytest.mark.parametrize("field", ["pk.0", "pk.1"])
    def test_lamport_public_half_must_match_secret(self, field):
        lines = self.valid().split("\n")
        k = next(i for i, line in enumerate(lines) if line.startswith(f"{field}: "))
        value = lines[k][len(field) + 2:]
        flipped = "0123456789abcdef"[(int(value[0], 16) + 1) % 16]
        lines[k] = f"{field}: {flipped}{value[1:]}"
        with pytest.raises(FormatError, match="do not match"):
            serial.loads("\n".join(lines))

    def test_key_of_more_than_2_to_the_28_hashes(self):
        text = serial.dump_secret_key(wots_kp()).replace("L: 4", f"L: {10**30}", 1)
        with pytest.raises(FormatError, match="invalid parameters"):
            serial.loads(text)

    @pytest.mark.parametrize("scheme", ["lamport", "wots"])
    def test_signature_with_a_value_too_many_is_written_and_refused(self, scheme):
        # the writer refuses it, and the reader refuses its text written by
        # hand: the value too many is not dropped into a valid signature
        kp, M = (lamport_kp(), 0) if scheme == "lamport" else (wots_kp(), BitString.from_int(5, 4))
        sig = SCHEMES[scheme].sign(kp, M)
        with pytest.raises(FormatError):
            serial.dump_signature(Signature(sig.sigma * 2), M, kp.params)
        extra = "sigma" if scheme == "lamport" else f"sigma.{len(sig.sigma) + 1}"
        text = serial.dump_signature(sig, M, kp.params) + f"{extra}: {sig.sigma[0].hex()}\n"
        with pytest.raises(FormatError):
            serial.loads(text)

    @pytest.mark.parametrize("kp", [lamport_kp, wots_kp])
    def test_value_wider_than_the_cap(self, kp):
        text = serial.dump_secret_key(kp()).replace("n: ", "n: 6553", 1)
        with pytest.raises(FormatError, match="invalid parameters: .*65536-bit cap"):
            serial.loads(text)

    def test_chain_index_wider_than_u8(self):
        # nu=9 needs chain indices up to 511; the oracle stores them as u8.
        # L=9 gives l=2, so the file carries r, pk.1 and pk.2.
        lines = serial.dump_public_key(wots_kp().public()).split("\n")
        assert lines[5:7] == ["L: 4", "nu: 2"]
        text = "\n".join(lines[:5] + ["L: 9", "nu: 9"] + lines[7:10]) + "\n"
        with pytest.raises(FormatError):
            serial.loads(text)

    def test_truncated_file(self):
        lines = self.valid().split("\n")
        with pytest.raises(FormatError):
            serial.loads("\n".join(lines[:4]) + "\n")

    def test_kind_outside_the_wanted_kinds(self):
        text = serial.dump_public_key(lamport_kp().public())
        assert serial.loads(text, ("public-key",)) == lamport_kp().public()
        with pytest.raises(FormatError, match="is a public-key file, expected signature"):
            serial.loads(text, ("signature",))
        with pytest.raises(FormatError, match="unknown kind"):
            serial.loads(text.replace("kind: public-key", "kind: mystery"), ("signature",))

    def test_load_path_names_the_file(self, tmp_path):
        path = tmp_path / "pk.txt"
        path.write_text(serial.dump_public_key(lamport_kp().public()))
        assert serial.load_path(path) == lamport_kp().public()
        message = f"{path}: is a public-key file, expected signature or pof-2"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            serial.load_path(path, ("signature", "pof-2"))


def test_error_text_is_cut_to_200_characters():
    # long numbers are elided rather than cut; tests/test_cli.py checks those
    text = serial.dump_public_key(lamport_kp().public())
    with pytest.raises(FormatError, match=r"^unknown kind 'x+\.\.\.$") as info:
        serial.loads(text.replace("kind: public-key", "kind: " + "x" * 5000))
    assert len(str(info.value)) == 200


def test_load_path_refuses_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "pk.txt"
    path.write_bytes(b"\xff\xfe" + serial.dump_public_key(lamport_kp().public()).encode())
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: not UTF-8 text')}$"):
        serial.load_path(path)


def _with_field(text, name, value):
    lines = text.split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith(f"{name}: "))
    lines[k] = f"{name}: {value}"
    return "\n".join(lines)


def _texts_the_writer_would_not_write():
    """(case, text): files a lenient reader could parse into a valid object
    but whose object writes different text, and over-long integers."""
    sk = serial.dump_secret_key(lamport_kp())
    lines = sk.split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith("sk.0: "))
    value = lines[k][len("sk.0: "):]
    assert value != value.upper()
    yield "n: +8", _with_field(sk, "n", "+8")
    yield "n:  8", _with_field(sk, "n", " 8")
    yield "n: 0_8", _with_field(sk, "n", "0_8")
    yield "n: unicode digit", _with_field(sk, "n", "\u0668")
    yield "hex with inner space", _with_field(sk, "sk.0", f"{value[:2]} {value[2:]}")
    yield "hex in upper case", _with_field(sk, "sk.0", value.upper())
    yield "two fields swapped", "\n".join(lines[:k] + [lines[k + 1], lines[k]] + lines[k + 2:])
    yield "duplicated field line", "\n".join(lines[:k + 1] + lines[k:])
    yield "CRLF line endings", sk.replace("\n", "\r\n")
    pk = serial.dump_public_key(wots_kp().public())
    for name in ("n", "delta", "L", "nu"):
        yield f"5000-digit {name}", _with_field(pk, name, "1" * 5000)


NOT_WRITTEN = dict(_texts_the_writer_would_not_write())


@pytest.mark.parametrize("case", list(NOT_WRITTEN))
def test_text_the_writer_would_not_write_is_refused(case):
    with pytest.raises(FormatError):
        serial.loads(NOT_WRITTEN[case])


def _objects_with_no_text():
    """(case, write): objects of a shape loads never builds, so no file
    holds one, each with the call that would write it."""
    lp, wp = LamportParams(8, 2), derive_wots_params(6, 2, 4, 2)
    lkp, wkp = lamport.keygen(lp, random.Random(1)), wots.keygen(wp, random.Random(2))
    seeded = KeyPair(lp, b"0123456789abcdef", lkp.sk, lkp.pk)
    M, M_other = BitString.from_int(0b1011, 4), BitString.from_int(0b0110, 4)
    sig = wots.sign(wkp, M)
    yield "lamport key with a seed", lambda: serial.dump_public_key(seeded.public())
    yield "lamport secret key with a seed", lambda: serial.dump_secret_key(seeded)
    yield "lamport signature of two values", (
        lambda: serial.dump_signature(Signature(lkp.sk), 0, lp))
    yield "lamport half 8 bits wide", (
        lambda: serial.dump_signature(Signature((BitString.from_int(0, 8),)), 0, lp))
    yield "lamport public half 12 bits wide", (
        lambda: serial.dump_public_key(PublicKey(lp, None, (BitString(12, b"\0\0"), lkp.pk[1]))))
    yield "lamport evidence with a signature of two values", (
        lambda: serial.dump_pof2(PofEvidenceII(lkp.public(), Signature(lkp.sk),
                                               lamport.sign(lkp, 1), 1)))
    yield "wots signature one value short", (
        lambda: serial.dump_signature(Signature(sig.sigma[:-1]), M, wp))
    yield "wots signature of another message", lambda: serial.dump_signature(sig, M_other, wp)
    yield "wots key one chain short", (
        lambda: serial.dump_public_key(PublicKey(wp, wkp.r, wkp.pk[:-1])))
    yield "key pair as a public key", lambda: serial.dump_public_key(lkp)
    yield "secret key whose sk is a list", (
        lambda: serial.dump_secret_key(KeyPair(lp, None, list(lkp.sk), lkp.pk)))
    yield "secret key whose sk is None", (
        lambda: serial.dump_secret_key(KeyPair(lp, None, None, lkp.pk)))
    yield "key with no parameters", lambda: serial.dump_public_key(PublicKey(None, None, lkp.pk))
    yield "public key as a secret key", lambda: serial.dump_secret_key(lkp.public())
    yield "wots message as an int", lambda: serial.dump_signature(sig, 0b1011, wp)
    yield "signature with no parameters", lambda: serial.dump_signature(sig, 0, None)
    yield "evidence with no key", lambda: serial.dump_pof2(PofEvidenceII(None, sig, sig, M))
    yield "lamport message 2", lambda: serial.dump_signature(lamport.sign(lkp, 1), 2, lp)
    yield "wots message of 5 bits", (
        lambda: serial.dump_signature(sig, BitString.from_int(0b10110, 5), wp))
    yield "wots key with a 3-byte seed", (
        lambda: serial.dump_public_key(PublicKey(wp, b"abc", wkp.pk)))
    yield "wots key whose seed is a BitString", (
        lambda: serial.dump_public_key(PublicKey(wp, BitString(128, bytes(wkp.r)), wkp.pk)))
    yield "public key whose pk is a list", (
        lambda: serial.dump_public_key(PublicKey(lp, None, list(lkp.pk))))
    yield "lamport secret half 8 bits wide", (
        lambda: serial.dump_secret_key(KeyPair(lp, None, (BitString(8, b"\0"), lkp.sk[1]), lkp.pk)))
    yield "signature as a bare tuple", lambda: serial.dump_signature(sig.sigma, M, wp)


NO_TEXT = dict(_objects_with_no_text())


@pytest.mark.parametrize("case", list(NO_TEXT))
def test_writer_refuses_an_object_loads_would_refuse(case):
    with pytest.raises(FormatError, match="is not shaped as its parameters say"):
        NO_TEXT[case]()


@pytest.mark.parametrize("params", [LP, WP], ids=lambda p: p.scheme)
def test_writer_refuses_a_secret_key_whose_pk_is_not_its_own(params):
    # loads would refuse the Lamport text and repair the WOTS key
    kp = SCHEMES[params.scheme].keygen(params, random.Random(6))
    assert kp.pk[::-1] != kp.pk
    with pytest.raises(FormatError, match="do not match"):
        serial.dump_secret_key(KeyPair(params, kp.r, kp.sk, kp.pk[::-1]))


@pytest.mark.parametrize("params", [LP, WP], ids=lambda p: p.scheme)
def test_writer_writes_an_invalid_signature_of_the_right_shape(params):
    # the shape check is not a validity check: verify refuses it from the file
    kp = SCHEMES[params.scheme].keygen(params, random.Random(5))
    M = 0 if params.scheme == "lamport" else BitString.from_int(5, 4)
    sigma = SCHEMES[params.scheme].sign(kp, M).sigma
    bad = Signature(tuple(BitString(v.bit_len, bytes(len(v.payload))) for v in sigma))
    loaded = serial.loads(serial.dump_signature(bad, M, params))
    assert loaded.signature == bad != Signature(sigma)
    assert scheme_verify(kp.public(), loaded.signature, M) == 0


def test_refusal_names_line_and_field_but_no_value():
    text = serial.dump_secret_key(lamport_kp())
    value = text.split("\n")[5][len("sk.0: "):]
    with pytest.raises(FormatError) as excinfo:
        serial.loads(_with_field(text, "sk.0", value.upper()))
    message = str(excinfo.value)
    assert message == "line 6: field 'sk.0' is not in canonical form"
    assert value not in message and value.upper() not in message


def _files_of_every_kind():
    """(name, text) of a secret key, public key, signature and pof-2 for
    each scheme; the forgery at seed 0 is detected for both."""
    cases = ((LP, 0, 1), (WP, BitString.from_int(3, 4), BitString.from_int(12, 4)))
    for params, M, M_star in cases:
        scheme = SCHEMES[params.scheme]
        rng = random.Random(0)
        kp = scheme.keygen(params, rng)
        sigma = scheme.sign(kp, M)
        forged = forge(kp.public(), M, sigma, M_star, ForgeryBudget(), rng)
        outcome = detect_forgery(kp, M_star, forged)
        assert outcome.detected
        yield f"{params.scheme}.secret-key", serial.dump_secret_key(kp)
        yield f"{params.scheme}.public-key", serial.dump_public_key(kp.public())
        yield f"{params.scheme}.signature", serial.dump_signature(sigma, M, params)
        yield f"{params.scheme}.pof-2", serial.dump_pof2(outcome.evidence)


def _dump(obj) -> str:
    if isinstance(obj, serial.SignatureFile):
        return serial.dump_signature(obj.signature, obj.message, obj.params)
    if isinstance(obj, PofEvidenceII):
        return serial.dump_pof2(obj)
    if isinstance(obj, KeyPair):
        return serial.dump_secret_key(obj)
    return serial.dump_public_key(obj)


FILES = dict(_files_of_every_kind())


@pytest.mark.parametrize("name", sorted(FILES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_character_mutation(name, data):
    """A file with one character replaced, inserted or deleted is either
    rejected with FormatError or is exactly the file its parsed object
    writes, so it equals the original only when the text is unchanged.
    A hex digit changed inside a field can give another valid object,
    which is why "equal to the original" alone cannot be required."""
    text = FILES[name]
    i = data.draw(st.integers(0, len(text)), label="position")
    op = data.draw(st.sampled_from(("replace", "insert", "delete")), label="op")
    ch = data.draw(st.one_of(st.sampled_from("0123456789abcdef:- \n\r"), st.characters()),
                   label="character")
    if op == "delete":
        mutated = text[:i] + text[i + 1:]
    else:
        mutated = text[:i] + ch + text[i + (op == "replace"):]
    try:
        obj = serial.loads(mutated)
    except FormatError:
        return
    assert _dump(obj) == mutated
    assert (obj == serial.loads(text)) == (mutated == text)
