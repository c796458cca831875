import random
import tracemalloc
from array import array

import pytest

from pofsig import adversary, forkjoin, lamport, wots
from pofsig.adversary import (
    MAX_DOMAIN_BITS,
    ForgeryBudget,
    build_lamport_preimage_index,
    chain_preimages,
    chain_tops,
    enumerate_preimages,
    forge,
    forge_lamport,
    forge_wots,
)
from pofsig.analysis import exact_expectation
from pofsig.core import BitString, LamportParams, PublicKey, Signature, derive_wots_params
from pofsig.errors import (
    BudgetExceeded,
    DomainError,
    EmptyPreimageSet,
    InvalidParams,
)
from pofsig.oracle import chain

BUDGET = ForgeryBudget()
LP = LamportParams(8, 2)
WP = derive_wots_params(6, 1, 4, 2)


def lam_oracle(params):
    return lambda x: lamport.hash_secret(params, x)


class TestBudget:
    def test_cap_enforced_on_construction(self):
        with pytest.raises(InvalidParams):
            ForgeryBudget(30)

    def test_large_domain_refused(self):
        y0 = BitString.from_int(0, 8)
        small = ForgeryBudget(12)
        with pytest.raises(BudgetExceeded):
            enumerate_preimages(lam_oracle(LP), y0, 20, small)


class TestEnumerate:
    def test_known_input_is_member(self):
        x0 = BitString.from_int(0x2A7, 10)
        y0 = lamport.hash_secret(LP, x0)
        ps = enumerate_preimages(lam_oracle(LP), y0, 10, BUDGET)
        assert x0 in ps.members

    def test_all_members_map_to_target(self):
        x0 = BitString.from_int(123, 10)
        y0 = lamport.hash_secret(LP, x0)
        ps = enumerate_preimages(lam_oracle(LP), y0, 10, BUDGET)
        assert ps.count >= 1
        for x in ps.members:
            assert lamport.hash_secret(LP, x) == y0

    def test_ascending_order(self):
        x0 = BitString.from_int(77, 10)
        y0 = lamport.hash_secret(LP, x0)
        ps = enumerate_preimages(lam_oracle(LP), y0, 10, BUDGET)
        values = [m.to_int() for m in ps.members]
        assert values == sorted(values)

    def test_agrees_with_index_lookup(self):
        # independent path: full image table vs per-target scan
        index = build_lamport_preimage_index(LP)
        rng = random.Random(31)
        for _ in range(10):
            x0 = BitString.from_int(rng.getrandbits(10), 10)
            y0 = lamport.hash_secret(LP, x0)
            scan = enumerate_preimages(lam_oracle(LP), y0, 10, BUDGET)
            via_index = tuple(BitString.from_int(v, 10) for v in index.get(y0.to_int(), ()))
            assert scan.members == via_index


class TestLamportIndex:
    def test_values_are_ascending_int_arrays_covering_the_domain(self):
        index = build_lamport_preimage_index(LP)
        assert all(isinstance(vs, array) and vs.typecode == "I" for vs in index.values())
        assert all(list(vs) == sorted(vs) for vs in index.values())
        assert sorted(v for vs in index.values() for v in vs) == list(range(1 << LP.sk_bits))
        for y, vs in index.items():
            assert lamport.hash_secret(LP, BitString.from_int(vs[0], LP.sk_bits)).to_int() == y

    def test_domain_above_the_cap_refused_before_enumerating(self, monkeypatch):
        params = LamportParams(20, 9)
        assert params.sk_bits == MAX_DOMAIN_BITS + 1
        monkeypatch.setattr(adversary, "image_blocks", lambda *a: pytest.fail("enumerated"))
        with pytest.raises(BudgetExceeded):
            build_lamport_preimage_index(params)

    def test_held_bytes_per_entry(self):
        params = LamportParams(8, 6)
        tracemalloc.start()
        try:
            index = build_lamport_preimage_index(params)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) <= 256
        assert held / (1 << params.sk_bits) <= 12.0

    def test_an_inline_build_is_filed_straight_into_the_index(self, monkeypatch):
        # on one CPU the caller's own job is the whole (8,10) index, 2^18
        # members of 4 B: about 1.1 MB, held once; a round trip through
        # bytes and back into fresh arrays peaked at 1.7-2.1 MB
        monkeypatch.setattr(forkjoin, "usable_cpus", lambda: 1)
        params = LamportParams(8, 10)
        build_lamport_preimage_index(LamportParams(8, 2))  # warm the kernel's caches
        tracemalloc.start()
        try:
            index = build_lamport_preimage_index(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, index.values())) == 1 << params.sk_bits
        assert peak < 1400 << 10

    @pytest.mark.parametrize("delta", [0, 2, 6, 8])
    def test_forge_via_index_equals_forge_via_scan(self, delta):
        # the reference draws from the generic scan's preimage set with the
        # same rng; at delta = 8 the 16-bit domain of the index-less
        # forgery's own single-target index is swept in forked jobs
        params = LamportParams(8, delta)
        index = build_lamport_preimage_index(params)
        keys = random.Random(delta)
        for _ in range(4):
            kp = lamport.keygen(params, keys)
            m = keys.getrandbits(1)
            sigma = lamport.sign(kp, m)
            seed = keys.getrandbits(64)
            via_index, via_own, via_scan = (random.Random(seed) for _ in range(3))
            a = forge_lamport(kp.public(), m, sigma, 1 - m, BUDGET, via_index, index=index)
            b = forge_lamport(kp.public(), m, sigma, 1 - m, BUDGET, via_own)
            ps = enumerate_preimages(lam_oracle(params), kp.pk[1 - m], params.sk_bits, BUDGET)
            assert a == b == Signature((ps.members[via_scan.randrange(ps.count)],))
            assert via_index.getstate() == via_own.getstate() == via_scan.getstate()

    def test_orphan_half_raises_through_the_index(self):
        params = LamportParams(8, 0)
        index = build_lamport_preimage_index(params)
        orphan = next(v for v in range(256) if v not in index)
        kp = lamport.keygen(params, random.Random(3))
        pk = PublicKey(params, None, (kp.pk[0], BitString.from_int(orphan, 8)))
        with pytest.raises(EmptyPreimageSet):
            forge_lamport(pk, 0, lamport.sign(kp, 0), 1, BUDGET, random.Random(0), index=index)
        with pytest.raises(EmptyPreimageSet):
            forge_lamport(pk, 0, lamport.sign(kp, 0), 1, BUDGET, random.Random(0))

    def test_narrow_budget_refused_through_the_index(self):
        index = build_lamport_preimage_index(LP)
        kp = lamport.keygen(LP, random.Random(1))
        with pytest.raises(BudgetExceeded):
            forge_lamport(kp.public(), 0, lamport.sign(kp, 0), 1, ForgeryBudget(8),
                          random.Random(0), index=index)

    def test_a_single_forgery_never_brings_the_domains_images_to_the_parent(
            self, monkeypatch):
        # (16,4) has 2^20 inputs of 2-byte images: 2 MB, which the parent
        # would hold if the workers sent back images rather than the one
        # target's members; a one-block sweep stays well under it, as in
        # test_whole_sweep_memory_stays_flat_across_blocks
        monkeypatch.setattr(forkjoin, "usable_cpus", lambda: 2)
        params = LamportParams(16, 4)
        kp = lamport.keygen(params, random.Random(5))
        tracemalloc.start()
        try:
            forged = forge_lamport(kp.public(), 0, lamport.sign(kp, 0), 1, BUDGET,
                                   random.Random(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lamport.verify(kp.public(), forged, 1) == 1
        assert peak < 2 << 20


class TestSample:
    """``_draw``, the one sampling rule both forgers use."""

    def test_singleton(self):
        x = BitString.from_int(3, 4)
        rng = random.Random(0)
        assert all(adversary._draw((x,), x, rng) == x for _ in range(10))

    def test_empty_raises(self):
        with pytest.raises(EmptyPreimageSet):
            adversary._draw((), BitString.from_int(0, 4), random.Random(0))

    def test_uniform_over_members(self):
        members = tuple(BitString.from_int(v, 4) for v in (1, 5, 9, 13))
        target = BitString.from_int(0, 4)
        rng = random.Random(8)
        counts = {m: 0 for m in members}
        draws = 10_000
        for _ in range(draws):
            counts[adversary._draw(members, target, rng)] += 1
        # each frequency within 3 sigma of 1/4
        sigma = (0.25 * 0.75 / draws) ** 0.5
        for c in counts.values():
            assert abs(c / draws - 0.25) <= 3 * sigma

    def test_sample_satisfies_membership(self):
        x0 = BitString.from_int(200, 10)
        y0 = lamport.hash_secret(LP, x0)
        ps = enumerate_preimages(lam_oracle(LP), y0, 10, BUDGET)
        rng = random.Random(4)
        for _ in range(5):
            assert lamport.hash_secret(LP, adversary._draw(ps.members, y0, rng)) == y0


class TestForgeLamport:
    def test_always_verifies(self):
        rng = random.Random(6)
        index = build_lamport_preimage_index(LP)
        for _ in range(50):
            kp = lamport.keygen(LP, rng)
            m = rng.getrandbits(1)
            sigma = lamport.sign(kp, m)
            forged = forge_lamport(
                kp.public(), m, sigma, 1 - m, BUDGET, rng, index=index
            )
            assert lamport.verify(kp.public(), forged, 1 - m) == 1

    def test_same_message_refused(self):
        rng = random.Random(6)
        kp = lamport.keygen(LP, rng)
        with pytest.raises(DomainError):
            forge_lamport(kp.public(), 0, lamport.sign(kp, 0), 0, BUDGET, rng)

    @pytest.mark.parametrize("m_star", [2, -1, "1", 1.0])
    def test_target_that_is_not_a_bit_refused(self, m_star):
        # the target indexes the public halves: -1 would pick pk[1]
        rng = random.Random(6)
        kp = lamport.keygen(LP, rng)
        with pytest.raises(DomainError, match="must be the bit not signed"):
            forge_lamport(kp.public(), 0, lamport.sign(kp, 0), m_star, BUDGET, rng)

    def test_collision_rate_matches_expectation_delta0(self):
        # fraction of forgeries that reproduce the signer's exact secret
        # should track E[1/N] ~ 0.632 at delta=0
        params = LamportParams(8, 0)
        index = build_lamport_preimage_index(params)
        rng = random.Random(12345)
        hits = 0
        trials = 1000
        for _ in range(trials):
            kp = lamport.keygen(params, rng)
            m = rng.getrandbits(1)
            sigma = lamport.sign(kp, m)
            forged = forge_lamport(
                kp.public(), m, sigma, 1 - m, BUDGET, rng, index=index
            )
            if forged.sigma == (kp.sk[1 - m],):
                hits += 1
        expect = exact_expectation(8, 0)
        sigma_mc = (expect * (1 - expect) / trials) ** 0.5
        assert abs(hits / trials - expect) <= 3 * sigma_mc

    def test_collision_rate_bounded_delta6(self):
        params = LamportParams(8, 6)
        index = build_lamport_preimage_index(params)
        rng = random.Random(99)
        hits = 0
        trials = 1000
        for _ in range(trials):
            kp = lamport.keygen(params, rng)
            sigma = lamport.sign(kp, 0)
            forged = forge_lamport(kp.public(), 0, sigma, 1, BUDGET, rng, index=index)
            if forged.sigma == (kp.sk[1],):
                hits += 1
        bound = 5.22 * 2 ** -6
        assert hits / trials < bound + 3 * (bound * (1 - bound) / trials) ** 0.5


class TestChainInversion:
    def test_members_reach_public_key(self):
        rng = random.Random(13)
        kp = wots.keygen(WP, rng)
        ps = chain_preimages(WP, kp.r, 0, kp.pk[0], BUDGET)
        assert ps.count >= 1
        for x in ps.members:
            assert chain(WP, kp.r, 0, WP.w - 1, x) == kp.pk[0]

    def test_agrees_with_generic_scan(self):
        rng = random.Random(14)
        kp = wots.keygen(WP, rng)
        for b_star in (0, 1, 2):
            fast = chain_preimages(WP, kp.r, b_star, kp.pk[1], BUDGET)
            slow = enumerate_preimages(
                lambda x: chain(WP, kp.r, b_star, WP.w - 1, x),
                kp.pk[1],
                WP.value_bits(b_star),
                BUDGET,
            )
            assert fast.members == slow.members

    @pytest.mark.parametrize("row,y", [
        ([3, 1, 4, 1, 5], 9),  # no match
        ([3, 1, 4, 1, 5], 3),  # the first index only
        ([3, 1, 4, 1, 5], 5),  # the last index only
        ([7, 2, 7, 7, 0, 7], 7),  # many matches, at both ends
        ([0] * 64, 0),  # every index
        ([], 0),
    ])
    def test_members_are_the_reference_positions(self, row, y):
        assert adversary._members(row, BitString.from_int(y, 4)) == [
            i for i, v in enumerate(row) if v == y]

    def test_top_depth_is_its_own_one_member(self):
        kp = wots.keygen(WP, random.Random(15))
        top, bits = WP.w - 1, WP.value_bits(WP.w - 1)
        for y in (kp.pk[0], BitString.from_int(0, bits), BitString.from_int((1 << bits) - 1, bits)):
            ps = chain_preimages(WP, kp.r, top, y, BUDGET)
            assert ps.members == tuple(
                BitString.from_int(v, bits) for v in range(1 << bits) if v == y.to_int())
            assert ps.members == (y,)


class TestChainTable:
    """chain_tops and chain_preimages against per-input chain walks and
    the generic scan, at every depth."""

    @pytest.mark.parametrize("args", [(6, 2, 4, 2), (4, 1, 4, 2), (6, 1, 6, 3)])
    def test_every_depth_matches_the_generic_scan(self, args):
        params = derive_wots_params(*args)
        kp = wots.keygen(params, random.Random(sum(args)))
        top = params.w - 1
        tops = chain_tops(params, kp.r, 0, BUDGET)
        assert sorted(tops) == list(range(top))
        for d in range(top + 1):
            bits = params.value_bits(d)
            slow = enumerate_preimages(
                lambda x: chain(params, kp.r, d, top, x), kp.pk[0], bits, BUDGET)
            assert chain_preimages(params, kp.r, d, kp.pk[0], BUDGET).members == slow.members
            if d == top:
                continue
            assert tops[d] == [
                chain(params, kp.r, d, top, BitString.from_int(v, bits)).to_int()
                for v in range(1 << bits)
            ]
            partial = chain_tops(params, kp.r, d, BUDGET)
            assert partial == {k: row for k, row in tops.items() if k >= d}

    def test_budget_checked_on_every_swept_width(self):
        params = derive_wots_params(6, 2, 4, 2)  # depths 0, 1, 2: 12, 10, 8 bits
        r = wots.keygen(params, random.Random(3)).r
        narrow = ForgeryBudget(max_domain_bits=11)
        assert sorted(chain_tops(params, r, 1, narrow)) == [1, 2]
        with pytest.raises(BudgetExceeded):
            chain_tops(params, r, 0, narrow)


def reference_forge_wots(pk, M, sigma, M_star, rng):
    """The forger by definition: advance where the target depth is not
    lower, else one uniform member of the generic scan's preimage set."""
    params = pk.params
    b, b_star = wots.extend(M, params), wots.extend(M_star, params)
    out = []
    for i in range(params.l):
        if b_star[i] >= b[i]:
            out.append(chain(params, pk.r, b[i], b_star[i], sigma.sigma[i]))
        else:
            ps = enumerate_preimages(
                lambda x: chain(params, pk.r, b_star[i], params.w - 1, x),
                pk.pk[i], params.value_bits(b_star[i]), BUDGET)
            out.append(ps.members[rng.randrange(ps.count)])
    return Signature(tuple(out))


class TestForgeWots:
    @pytest.mark.parametrize("args", [(6, 1, 4, 2), (6, 2, 4, 2)])
    def test_matches_the_reference_forger(self, args):
        params = derive_wots_params(*args)
        rng = random.Random(23)
        for k in range(6):
            kp = wots.keygen(params, rng)
            M = BitString.from_int(rng.getrandbits(4), 4)
            M_star = BitString.from_int((M.to_int() + 1 + rng.randrange(15)) % 16, 4)
            sigma = wots.sign(kp, M)
            tops = chain_tops(params, kp.r, 0, BUDGET) if k % 2 else None
            seed = rng.getrandbits(64)
            ours, theirs = random.Random(seed), random.Random(seed)
            forged = forge_wots(kp.public(), M, sigma, M_star, BUDGET, ours, tops)
            assert forged == reference_forge_wots(kp.public(), M, sigma, M_star, theirs)
            assert ours.getstate() == theirs.getstate()

    def test_always_verifies(self):
        rng = random.Random(21)
        for _ in range(10):
            kp = wots.keygen(WP, rng)
            M = BitString.from_int(rng.getrandbits(4), 4)
            while True:
                M_star = BitString.from_int(rng.getrandbits(4), 4)
                if M_star != M:
                    break
            sigma = wots.sign(kp, M)
            forged = forge_wots(kp.public(), M, sigma, M_star, BUDGET, rng)
            assert wots.verify(kp.public(), forged, M_star) == 1

    def test_some_position_is_inverted(self):
        # the checksum guarantees a strictly decreasing digit somewhere
        for a in range(16):
            for b in range(16):
                if a == b:
                    continue
                ba = wots.extend(BitString.from_int(a, 4), WP)
                bb = wots.extend(BitString.from_int(b, 4), WP)
                assert any(x < y for x, y in zip(bb, ba))

    def test_same_message_refused(self):
        rng = random.Random(22)
        kp = wots.keygen(WP, rng)
        M = BitString.from_int(5, 4)
        with pytest.raises(DomainError):
            forge_wots(kp.public(), M, wots.sign(kp, M), M, BUDGET, rng)

    def test_target_that_is_not_a_bit_string_refused(self):
        rng = random.Random(22)
        kp = wots.keygen(WP, rng)
        M = BitString.from_int(5, 4)
        with pytest.raises(DomainError):
            forge_wots(kp.public(), M, wots.sign(kp, M), "x", BUDGET, rng)


def test_forge_dispatches_on_the_key_scheme():
    rng = random.Random(41)
    lkp = lamport.keygen(LP, rng)
    forged = forge(lkp.public(), 0, lamport.sign(lkp, 0), 1, BUDGET, rng)
    assert isinstance(forged, Signature) and len(forged.sigma) == 1
    assert lamport.verify(lkp.public(), forged, 1) == 1
    wkp = wots.keygen(WP, rng)
    M, M_star = BitString.from_int(3, 4), BitString.from_int(12, 4)
    forged = forge(wkp.public(), M, wots.sign(wkp, M), M_star, BUDGET, rng)
    assert isinstance(forged, Signature) and len(forged.sigma) == WP.l
    assert wots.verify(wkp.public(), forged, M_star) == 1
