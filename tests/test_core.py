import random

import pytest
from hypothesis import given, strategies as st

from pofsig.core import (
    MAX_VALUE_BITS,
    BitString,
    LamportParams,
    WotsParams,
    derive_wots_params,
    draw_bits,
)
from pofsig.errors import InvalidParams
from reference import meets_bitstring_invariants


class TestPackBits:
    """from_int packs a value MSB-first into whole bytes, pad bits zero."""

    def test_empty(self):
        bs = BitString.from_int(0, 0)
        assert bs.bit_len == 0
        assert bs.payload == b""
        assert BitString(0, b"").to_int() == 0

    def test_msb_first(self):
        bs = BitString.from_int(0b1011, 4)
        assert bs.bit_len == 4
        assert bs.payload == b"\xb0"

    def test_pad_bits_zero(self):
        bs = BitString.from_int(0x1FF, 9)
        assert bs.bit_len == 9
        assert bs.payload == b"\xff\x80"

    @given(st.integers(0, 300).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(0, (1 << k) - 1))))
    def test_round_trip(self, width_value):
        k, v = width_value
        bs = BitString.from_int(v, k)
        assert len(bs.payload) == (k + 7) // 8
        assert bs.to_int() == v
        # built unchecked, it is what the checked constructor takes
        assert meets_bitstring_invariants(bs) and bs == BitString(k, bs.payload)

    @given(st.integers(0, 300), st.integers(0, 2 ** 32))
    def test_drawn_bits_meet_the_invariants(self, k, seed):
        bs = draw_bits(random.Random(seed), k)
        assert bs.bit_len == k
        assert meets_bitstring_invariants(bs) and bs == BitString(k, bs.payload)

    def test_round_trip_large(self):
        v = random.Random(1234).getrandbits(10_000)
        assert BitString.from_int(v, 10_000).to_int() == v


class TestBitString:
    def test_payload_length_checked(self):
        with pytest.raises(InvalidParams):
            BitString(4, b"\xb0\x00")

    def test_pad_bits_checked(self):
        with pytest.raises(InvalidParams):
            BitString(4, b"\xb1")

    def test_negative_length(self):
        with pytest.raises(InvalidParams):
            BitString(-1, b"")

    @given(st.integers(0, 2 ** 40 - 1))
    def test_int_round_trip(self, v):
        assert BitString.from_int(v, 40).to_int() == v

    def test_from_int_overflow(self):
        # a negative width holds no value, not even 0
        for value, bit_len in ((16, 4), (0, -1), (1, -1)):
            with pytest.raises(InvalidParams):
                BitString.from_int(value, bit_len)

    def test_hex(self):
        assert BitString.from_int(0b1011, 4).hex() == "b0"


class TestLamportParams:
    def test_lengths(self):
        p = LamportParams(8, 4)
        assert p.sk_bits == 12

    @pytest.mark.parametrize("n,delta", [(0, 0), (-1, 2), (8, -1)])
    def test_rejects_bad(self, n, delta):
        with pytest.raises(InvalidParams):
            LamportParams(n, delta)

    @pytest.mark.parametrize("n,delta", [(8.0, 2), (8, 2.0), ("8", 2), (True, 2), (8, False)])
    def test_rejects_non_integers(self, n, delta):
        with pytest.raises(InvalidParams, match="must be an integer"):
            LamportParams(n, delta)


class TestValueCap:
    def test_lamport_secret_half_at_the_cap(self):
        assert LamportParams(MAX_VALUE_BITS, 0).sk_bits == 1 << 16
        with pytest.raises(InvalidParams, match="exceed the 65536-bit cap"):
            LamportParams(1 << 16, 1)

    def test_paper_scale_wots_is_accepted(self):
        # (n, delta, L, nu) = (256, 32, 256, 8): 8416-bit secrets
        assert derive_wots_params(256, 32, 256, 8).sk_bits == 256 + 32 * 255

    @pytest.mark.parametrize("n,delta", [(10**40, 0), (8, 10**40), (1 << 16, 1)])
    def test_wots_secret_over_the_cap_is_refused(self, n, delta):
        with pytest.raises(InvalidParams, match="cap"):
            derive_wots_params(n, delta, 4, 2)


def test_params_name_their_scheme_outside_the_fields():
    lp, wp = LamportParams(8, 4), derive_wots_params(6, 1, 4, 2)
    assert (lp.scheme, wp.scheme) == ("lamport", "wots")
    # a class attribute, not a field: repr and equality are unchanged
    assert LamportParams.__slots__ == ("n", "delta")
    assert "scheme" not in WotsParams.__slots__
    assert repr(lp) == "LamportParams(n=8, delta=4)"
    assert repr(wp) == "WotsParams(n=6, delta=1, L=4, nu=2, w=4, l1=2, l2=2, l=4)"
    assert lp == LamportParams(8, 4) and hash(lp) == hash((8, 4))
    assert wp == WotsParams(6, 1, 4, 2) and hash(wp) == hash((6, 1, 4, 2, 4, 2, 2, 4))


class TestDeriveWotsParams:
    def test_example_small(self):
        p = derive_wots_params(6, 1, 4, 2)
        assert (p.w, p.l1, p.l2, p.l) == (4, 2, 2, 4)

    def test_derived_fields_are_not_arguments(self):
        # w, l1, l2 and l follow from n, delta, L and nu, so none is taken
        with pytest.raises(TypeError):
            WotsParams(n=6, delta=2, L=4, nu=2, w=8, l1=1, l2=1, l=2)
        for name in ("w", "l1", "l2", "l"):
            with pytest.raises(TypeError):
                WotsParams(6, 2, 4, 2, **{name: 4})
        with pytest.raises(TypeError):
            WotsParams(6, 2, 4, 2, 4)

    def test_one_way_to_build(self):
        p = WotsParams(6, 2, 4, 2)
        assert p == derive_wots_params(6, 2, 4, 2)
        assert hash(p) == hash(derive_wots_params(6, 2, 4, 2))
        assert repr(p) == "WotsParams(n=6, delta=2, L=4, nu=2, w=4, l1=2, l2=2, l=4)"

    def test_example_binary(self):
        p = derive_wots_params(8, 0, 8, 1)
        assert (p.w, p.l1, p.l2, p.l) == (2, 8, 4, 12)

    def test_rejects_indivisible_length(self):
        with pytest.raises(InvalidParams):
            derive_wots_params(6, 1, 5, 2)

    @pytest.mark.parametrize("field", ["n", "delta", "L", "nu"])
    def test_rejects_out_of_range(self, field):
        kw = dict(n=6, delta=1, L=4, nu=2)
        kw[field] = -1
        with pytest.raises(InvalidParams):
            derive_wots_params(**kw)

    @pytest.mark.parametrize("args", [(6.0, 2, 4, 2), (6, 2.0, 4, 2), (6, 2, "4", 2),
                                      (6, 2, 4, True), (True, 0, 4, 2)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(InvalidParams, match="must be an integer"):
            WotsParams(*args)

    def test_rejects_chain_index_above_u8(self):
        # the oracle tag stores the chain index as one byte: w-1 <= 255
        assert derive_wots_params(4, 0, 8, 8).w - 1 == 255
        with pytest.raises(InvalidParams):
            derive_wots_params(4, 0, 9, 9)

    def test_rejects_a_key_of_more_than_2_to_the_28_hashes(self):
        # keygen walks l chains of w-1 steps: refused before any is built
        assert derive_wots_params(8, 1, 4096, 2).l == 2055
        with pytest.raises(InvalidParams, match="exceeds 2\\^28 hashes"):
            derive_wots_params(8, 1, 10**30, 2)
        with pytest.raises(InvalidParams):
            derive_wots_params(8, 1, 8 << 28, 8)  # l1 = 2^28 chains of 255 steps

    def test_element_lengths(self):
        p = derive_wots_params(6, 1, 4, 2)
        assert p.sk_bits == 6 + 1 * 3
        assert p.value_bits(0) == p.sk_bits
        assert p.value_bits(p.w - 1) == p.n
        for pos in (-1, p.w):
            with pytest.raises(InvalidParams):
                p.value_bits(pos)

    def test_checksum_always_representable(self):
        # maximum checksum l1*(w-1) must fit in l2 base-w digits
        for nu in (1, 2, 4, 8):
            for L in range(nu, 33, nu):
                p = derive_wots_params(8, 1, L, nu)
                assert p.l1 * (p.w - 1) < p.w ** p.l2
                assert p.l == p.l1 + p.l2
