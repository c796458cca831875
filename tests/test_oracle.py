import ast
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import pofsig
from pofsig import oracle
from pofsig.core import BitString, derive_wots_params
from pofsig.errors import DomainError, InvalidParams
from pofsig.oracle import (
    LABEL_LAMPORT,
    LABEL_WOTS_CHAIN,
    OracleTag,
    Seed,
    apply_step,
    chain,
    chain_steps,
    image_blocks,
    lamport_step,
    oracle_eval,
    tag_prefix,
)
from reference import counter_mode, meets_bitstring_invariants

LAM = OracleTag(LABEL_LAMPORT)


def test_determinism():
    x = BitString.from_int(0xAB, 8)
    assert oracle_eval(LAM, x, 8) == oracle_eval(LAM, x, 8)
    assert oracle_eval(LAM, x, 64) == oracle_eval(LAM, x, 64)


def test_output_length_exact():
    x = BitString.from_int(5, 4)
    for out in (1, 7, 8, 9, 64, 300):
        y = oracle_eval(LAM, x, out)
        assert y.bit_len == out
    with pytest.raises(InvalidParams):
        oracle_eval(LAM, x, 0)


def test_widths_are_independent_oracles():
    # out_bits is bound into the tag, so an 8-bit output is not a prefix
    # of the 16-bit one; over 100 inputs the first bytes must differ at
    # least once (in fact almost always)
    rng = random.Random(7)
    diffs = 0
    for _ in range(100):
        x = BitString.from_int(rng.getrandbits(16), 16)
        y8 = oracle_eval(LAM, x, 8)
        y16 = oracle_eval(LAM, x, 16)
        if y8.payload[0] != y16.payload[0]:
            diffs += 1
    assert diffs >= 1


def test_exhaustive_image_census_uniform():
    # preimage-count distribution over the full 8-bit domain should fit
    # Bin(2^-8, 2^8) by chi-square at the 1% level
    hits = {}
    for v in range(256):
        y = oracle_eval(LAM, BitString.from_int(v, 8), 8).to_int()
        hits[y] = hits.get(y, 0) + 1
    count_hist = {}
    for y in range(256):
        k = hits.get(y, 0)
        count_hist[k] = count_hist.get(k, 0) + 1
    kmax = max(count_hist)
    observed, expected = [], []
    cut = 3  # pool k >= 3 so every expected bin stays >= 5
    for k in range(cut):
        observed.append(count_hist.get(k, 0))
        expected.append(256 * stats.binom.pmf(k, 256, 1 / 256))
    observed.append(sum(c for k, c in count_hist.items() if k >= cut))
    expected.append(256 * stats.binom.sf(cut - 1, 256, 1 / 256))
    exp = np.asarray(expected) * (sum(observed) / sum(expected))
    _, p = stats.chisquare(observed, exp)
    assert p > 0.01
    assert kmax < 12


def test_tag_validation():
    with pytest.raises(InvalidParams):
        OracleTag(b"OTHER")
    with pytest.raises(InvalidParams):
        OracleTag(LABEL_LAMPORT, index=1)
    with pytest.raises(InvalidParams):
        OracleTag(LABEL_WOTS_CHAIN, r=Seed(bytes(16)), index=0)
    with pytest.raises(InvalidParams):
        OracleTag(LABEL_WOTS_CHAIN, r=None, index=1)
    with pytest.raises(InvalidParams):
        Seed(b"\x00" * 15)


class TestChain:
    params = derive_wots_params(6, 1, 4, 2)
    r = Seed(bytes(range(16)))

    # The f-step cases: one chain step f_i is chain(params, r, i - 1, i, x).

    def test_f_step_lengths(self):
        x = BitString.from_int(0x1FF, 9)  # position 0 value: 6 + 1*3 bits
        y = chain(self.params, self.r, 0, 1, x)
        assert y.bit_len == 8
        z = chain(self.params, self.r, 1, 2, y)
        assert z.bit_len == 7
        self._each_step_lands_on_its_width(self.params)

    def test_f_step_delta_zero_keeps_length(self):
        p0 = derive_wots_params(8, 0, 4, 2)
        x = BitString.from_int(0xAA, 8)
        assert chain(p0, self.r, 0, 1, x).bit_len == 8
        self._each_step_lands_on_its_width(p0)

    def _each_step_lands_on_its_width(self, params):
        rng = random.Random(5)
        for i in range(1, params.w):
            for _ in range(8):
                bits = params.value_bits(i - 1)
                x = BitString.from_int(rng.getrandbits(bits), bits)
                assert chain(params, self.r, i - 1, i, x).bit_len == params.value_bits(i)

    def test_f_step_wrong_length(self):
        with pytest.raises(DomainError):
            chain(self.params, self.r, 0, 1, BitString.from_int(0, 8))
        for i in range(1, self.params.w):
            with pytest.raises(DomainError):
                chain(self.params, self.r, i - 1, i,
                      BitString.from_int(0, self.params.value_bits(i)))

    def test_f_step_index_range(self):
        # steps i = 0 and i = w are outside 1..w-1
        x = BitString.from_int(0, 9)
        with pytest.raises(IndexError):
            chain(self.params, self.r, -1, 0, x)
        with pytest.raises(IndexError):
            chain(self.params, self.r, 3, 4, x)

    def test_identity_at_equal_ends(self):
        x = BitString.from_int(0x55, 8)  # position 1 value
        assert chain(self.params, self.r, 1, 1, x) == x

    def test_composition(self):
        rng = random.Random(3)
        for _ in range(20):
            x = BitString.from_int(rng.getrandbits(9), 9)
            full = chain(self.params, self.r, 0, 2, x)
            step = chain(self.params, self.r, 1, 2, chain(self.params, self.r, 0, 1, x))
            assert full == step

    def test_bad_ranges(self):
        x = BitString.from_int(0, 9)
        with pytest.raises(IndexError):
            chain(self.params, self.r, 2, 1, x)
        with pytest.raises(IndexError):
            chain(self.params, self.r, 0, 4, x)
        with pytest.raises(IndexError):
            chain(self.params, self.r, -1, 1, x)
        with pytest.raises(DomainError):
            chain(self.params, self.r, 1, 2, x)  # 9 bits is a position-0 length


class TestDomainImages:
    """The sweep kernel against oracle_eval, one candidate at a time."""

    r = Seed(bytes(range(16, 32)))

    @pytest.mark.parametrize(
        "domain_bits,out_bits",
        [(8, 8), (16, 16), (10, 8), (12, 10), (4, 64), (8, 1), (12, 6), (12, 64),
         (13, 9), (14, 17), (12, 32), (18, 1), (18, 33), (20, 64)],
    )
    def test_one_step_matches_oracle_eval(self, domain_bits, out_bits):
        # widths that are not whole bytes check the shift to out_bits, and
        # 8/9, 16/17, 32/33 and 64 bits sit on both sides of each array
        # item size; a domain over 12 bits is swept in blocks of 2^5..2^12
        # inputs (13, 14, 18 and 20 bits: pads 3, 2, 6 and 4), and the
        # sub-ranges start and stop inside blocks, so their first and last
        # blocks are short
        step = (tag_prefix(LAM, out_bits, domain_bits), out_bits)
        assert lamport_step(out_bits, domain_bits) == step
        size = 1 << domain_bits
        half = size // 2

        def one_at_a_time(part):
            return [apply_step(step, BitString.from_int(v, domain_bits)).to_int() for v in part]

        def swept(part):
            return [y for block in image_blocks(step, domain_bits, part) for y in block]

        for part in (range(3, 5), range(size - 1, size),
                     range(half - min(half, 4999), half + min(half, 37))):
            assert swept(part) == one_at_a_time(part)
        if domain_bits > 16:  # the whole domain one input at a time takes too long
            return
        images = [y for block in image_blocks(step, domain_bits) for y in block]
        assert images == one_at_a_time(range(size))
        for v, y in enumerate(images):
            assert y == oracle_eval(LAM, BitString.from_int(v, domain_bits), out_bits).to_int()
        for part in (range(half), range(half, size)):
            assert swept(part) == images[part.start:part.stop]

    @pytest.mark.parametrize(
        "out_bits,itemsize", [(1, 1), (8, 1), (9, 2), (16, 2), (17, 4), (32, 4), (33, 8), (64, 8)])
    def test_blocks_are_arrays_in_the_narrowest_typecode(self, out_bits, itemsize):
        # a 14-bit domain is swept in blocks of 2^6 inputs: range(100, 9000)
        # starts 36 inputs into block 1 and stops 40 inputs into block 140
        blocks = list(image_blocks(lamport_step(out_bits, 14), 14, range(100, 9000)))
        assert {(type(block), block.itemsize) for block in blocks} == {(array, itemsize)}
        assert [len(block) for block in blocks] == [28] + [64] * 138 + [40]

    @pytest.mark.parametrize(
        "inputs", [range(0, 6, 2), range(254, 258), range(-1, 3), range(5, 3), [0, 1]])
    def test_inputs_must_be_a_step_1_sub_range_of_the_domain(self, inputs):
        with pytest.raises(InvalidParams):
            image_blocks(lamport_step(8, 8), 8, inputs)

    def test_sweep_stays_lazy_at_the_budget_width(self, monkeypatch):
        # a 28-bit sweep (the ForgeryBudget cap) yields its first image
        # after one block of 2^12 hashes, holding well under 2 MB
        step = lamport_step(8, 28)
        first = apply_step(step, BitString.from_int(0, 28)).to_int()
        tracemalloc.start()
        try:
            assert next(image_blocks(step, 28))[0] == first
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

        digests = []

        class Counted:
            def __init__(self, h):
                self.h = h

            def copy(self):
                return Counted(self.h.copy())

            def update(self, data):
                self.h.update(data)

            def digest(self):
                digests.append(1)
                return self.h.digest()

        monkeypatch.setattr(oracle, "_sha256", lambda data: Counted(hashlib.sha256(data)))
        assert next(image_blocks(step, 28))[0] == first
        assert len(digests) <= 1 << 12

    def test_whole_sweep_memory_stays_flat_across_blocks(self):
        # counting a 20-bit sweep (2^8 blocks of 2^12 inputs) holds one
        # block at a time: nothing piles up from block to block
        step = lamport_step(8, 20)
        target = apply_step(step, BitString.from_int(0, 20)).to_int()
        tracemalloc.start()
        try:
            hits = sum(block.count(target) for block in image_blocks(step, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits >= 1
        assert peak < 2 << 20

    @pytest.mark.parametrize("domain_bits,inputs", [
        (12, None),  # one block of 2^12 inputs
        (20, range(4000, 3 * 4096 + 100)),  # blocks of 2^12, cut at both ends
    ])
    def test_sweep_keeps_at_most_256_hash_states_alive(self, monkeypatch, domain_bits, inputs):
        # the cyclic GC tracks the built-in hash states and collects after
        # 700 net allocations; the prefix and block states are the +2
        step = lamport_step(8, domain_bits)
        expected = list(image_blocks(step, domain_bits, inputs))
        live = [0, 0]  # now, most

        class Counted:
            def __init__(self, h):
                self.h = h
                live[0] += 1
                live[1] = max(live)

            def __del__(self):
                live[0] -= 1

            def copy(self):
                return Counted(self.h.copy())

            def update(self, data):
                self.h.update(data)

            def digest(self):
                return self.h.digest()

        monkeypatch.setattr(oracle, "_sha256", lambda data: Counted(hashlib.sha256(data)))
        assert list(image_blocks(step, domain_bits, inputs)) == expected
        assert 256 < live[1] <= 256 + 2
        assert live[0] == 0

    @pytest.mark.parametrize(
        "params,start",
        [
            (derive_wots_params(6, 2, 4, 2), 0),  # 12 -> 10 -> 8 -> 6 bits
            (derive_wots_params(6, 2, 4, 2), 1),
            (derive_wots_params(8, 0, 4, 2), 0),  # 8 -> 8 -> 8 -> 8 bits
            (derive_wots_params(4, 4, 3, 1), 0),  # 8 -> 4 bits
        ],
    )
    def test_chain_composition_matches_chain(self, params, start):
        steps = []
        for i in range(1, params.w):
            tag = OracleTag(LABEL_WOTS_CHAIN, self.r, i)
            out_bits = params.value_bits(i)
            steps.append((tag_prefix(tag, out_bits, params.value_bits(i - 1)), out_bits))
        assert chain_steps(params, self.r) == tuple(steps)
        # rows[i] sweeps steps[i]: an image is its input's position in the
        # next row, so composing rows[a:b] walks every input from a to b
        rows = [[y for block in image_blocks(step, params.value_bits(i)) for y in block]
                for i, step in enumerate(steps)]
        for a in range(start, params.w):
            for b in range(a, params.w):
                for v in range(1 << params.value_bits(a)):
                    y = v
                    for row in rows[a:b]:
                        y = row[y]
                    x = BitString.from_int(v, params.value_bits(a))
                    assert y == chain(params, self.r, a, b, x).to_int()

    @pytest.mark.parametrize("out_bits", [0, 65, 255, 256, 257, 300])
    def test_out_of_range_width_rejected_at_call(self, out_bits):
        prefix = tag_prefix(LAM, out_bits, 4)
        with pytest.raises(InvalidParams):
            image_blocks((prefix, out_bits), 4)

    def test_negative_domain_width_rejected_at_call(self):
        with pytest.raises(InvalidParams):
            image_blocks(lamport_step(8, 4), -1)


def _layout_image(label, r, index, out_bits, x):
    """The module docstring's layout, hashed with hashlib: T's fields,
    then the counter-mode stream cut to out_bits bits, pad bits zero."""
    t = (label + b"\x00" + r + bytes([index]) + out_bits.to_bytes(8, "big")
         + x.bit_len.to_bytes(8, "big") + x.payload)
    return BitString(*counter_mode(t, out_bits))


@given(out_bits=st.integers(1, 600), width=st.integers(0, 80), data=st.data())
def test_apply_step_is_the_counter_mode_stream(out_bits, width, data):
    # 1 to 600 bits: one to three counter blocks, pad bits or none
    x = BitString.from_int(data.draw(st.integers(0, (1 << width) - 1)), width)
    index = data.draw(st.integers(0, 255))
    if index:
        tag = OracleTag(LABEL_WOTS_CHAIN, Seed(data.draw(st.binary(min_size=16, max_size=16))), index)
    else:
        tag = LAM
    prefix = tag_prefix(tag, out_bits, width)
    y = apply_step((prefix, out_bits), x)
    assert (y.bit_len, y.payload) == counter_mode(prefix + x.payload, out_bits)
    assert meets_bitstring_invariants(y) and y == BitString(y.bit_len, y.payload)


class TestKnownAnswers:
    """The normative layout, recomputed here with hashlib, against every
    path that hashes: apply_step, oracle_eval and the sweep kernel."""

    r = Seed(bytes(range(16, 32)))

    @pytest.mark.parametrize("out_bits", [1, 8, 9, 256, 257, 600])
    def test_one_value_matches_the_layout(self, out_bits):
        for v, in_bits in ((0, 8), (0xAB, 8), (0x1ABC, 13), (1, 1)):
            x = BitString.from_int(v, in_bits)
            want = _layout_image(LABEL_LAMPORT, b"", 0, out_bits, x)
            assert apply_step(lamport_step(out_bits, in_bits), x) == want
            assert oracle_eval(LAM, x, out_bits) == want
            tag = OracleTag(LABEL_WOTS_CHAIN, self.r, 3)
            assert oracle_eval(tag, x, out_bits) == _layout_image(
                LABEL_WOTS_CHAIN, bytes(self.r), 3, out_bits, x)

    @pytest.mark.parametrize("domain_bits,out_bits", [(14, 10), (9, 1), (13, 64)])
    def test_sweep_of_a_sub_range_matches_the_layout(self, domain_bits, out_bits):
        part = range(1000, 1300) if domain_bits > 10 else range(100, 300)
        swept = [y for block in image_blocks(lamport_step(out_bits, domain_bits),
                                             domain_bits, part) for y in block]
        assert swept == [_layout_image(LABEL_LAMPORT, b"", 0, out_bits,
                                       BitString.from_int(v, domain_bits)).to_int()
                         for v in part]

    def test_hashlib_fallback_gives_the_same_images(self):
        # with no built-in module the oracle hashes through hashlib, and
        # every image stays the same
        code = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from pofsig import oracle\n"
            "from pofsig.core import BitString\n"
            "assert oracle._sha256 is hashlib.sha256\n"
            "step = oracle.lamport_step(10, 14)\n"
            "print([list(b) for b in oracle.image_blocks(step, 14, range(1000, 1300))])\n"
            "x = BitString.from_int(0x1ABC, 13)\n"
            "print(oracle.apply_step(oracle.lamport_step(600, 13), x).hex())\n"
        )
        src = str(Path(pofsig.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        blocks, wide = res.stdout.splitlines()
        step = lamport_step(10, 14)
        assert ast.literal_eval(blocks) == [list(b) for b in image_blocks(step, 14, range(1000, 1300))]
        assert wide == apply_step(lamport_step(600, 13), BitString.from_int(0x1ABC, 13)).hex()


def test_tags_are_built_only_in_oracle():
    # OracleTag and tag_prefix are called only where the layout is defined
    callers = set()
    for path in Path(pofsig.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
                if name in ("OracleTag", "tag_prefix"):
                    callers.add(path.name)
    assert callers == {"oracle.py"}


def test_hash_layout_has_one_owner():
    # only oracle.py may import a SHA-256 constructor, so the tag layout
    # lives in one module
    importers = set()
    for path in Path(pofsig.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("hashlib", "_sha2", "_sha256") for name in names):
                importers.add(path.name)
    assert importers == {"oracle.py"}


def test_scheme_is_picked_from_params_not_from_classes():
    # no isinstance in src/ names a Lamport*/Wots* class: the scheme comes
    # from params.scheme, as pof.SCHEMES and adversary.forge look it up
    sites = []
    for path in Path(pofsig.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance"):
                continue
            for sub in ast.walk(node.args[1]):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", "")
                if name.startswith(("Lamport", "Wots")):
                    sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def test_keys_are_drawn_only_by_the_experiment_loops():
    # a trial attacks a key its caller drew: in analysis.py only the
    # experiment loop and the scenario call keygen
    tree = ast.parse((Path(pofsig.__file__).parent / "analysis.py").read_text(encoding="utf-8"))
    callers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                fn = node.func
                if (fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")) == "keygen":
                    callers.add(getattr(top, "name", "<module>"))
    assert callers == {"run_fda_experiment", "run_scenario"}


def test_exhaustive_search_reads_no_byte_layout():
    # adversary.py works on integers: images from image_blocks, targets
    # through to_int(), so byte layout stays inside oracle and core
    tree = ast.parse((Path(pofsig.__file__).parent / "adversary.py").read_text(encoding="utf-8"))
    sites = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "payload"]
    assert sites == []
