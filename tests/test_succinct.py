import gc
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import abbab, banana, make_fixture, random_text
from plcpbits import build_plcp
from plcpbits.errors import DiffBoundViolation, OutOfRange, TruncatedCode
from plcpbits.succinct import (GammaStream, PlcpBits, RsBitVector,
                               WaveletTree, _select_in_word, plcp_encode)


def test_gamma_codewords():
    for v, bits in [(0, "1"), (1, "010"), (4, "00101")]:
        g = GammaStream()
        g.put(v)
        assert g.bit_string() == bits


@given(st.lists(st.integers(0, 10 ** 6), max_size=60))
def test_gamma_roundtrip(values):
    g = GammaStream()
    g.put_all(values)
    reader = g.reader()
    assert [reader.get() for _ in values] == values


@given(st.lists(st.integers(0, 500), min_size=0, max_size=200))
def test_gamma_size_bound(values):
    # a stream of l values summing to s never exceeds l + 2s bits
    g = GammaStream()
    g.put_all(values)
    assert g.total_bits <= len(values) + 2 * sum(values)


def test_gamma_truncated():
    g = GammaStream()
    g.put(6)
    r = g.reader()
    assert r.get() == 6
    with pytest.raises(TruncatedCode):
        r.get()


@given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
@example([])
@example([1, 0, 0] * 43)  # 129 bits: a last word of one bit
def test_rank_select_consistency(bits):
    v = RsBitVector(bits)
    assert v.bit_string() == "".join(str(v.get(i)) for i in range(len(bits)))
    ones = 0
    for i, b in enumerate(bits):
        assert v.rank1(i) == ones
        assert v.get(i) == b
        if b:
            assert v.select1(ones) == i
            ones += 1
        else:
            assert v.select0(v.rank0(i)) == i
    assert v.rank1(len(bits)) == ones


words = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sets(st.integers(0, 63)).map(lambda s: sum(1 << i for i in s)))


@given(words)
def test_select_in_word_matches_a_scan(word):
    ones = [i for i in range(64) if word >> i & 1]
    assert [_select_in_word(word, r) for r in range(len(ones))] == ones


def test_select_in_word_edge_words():
    full = 2**64 - 1
    assert _select_in_word(full, 0) == 0
    assert _select_in_word(full, 63) == 63
    assert _select_in_word(1 << 63, 0) == 63
    assert _select_in_word(1, 0) == 0
    for bit in range(8):
        per_byte = 0x0101010101010101 << bit
        assert [_select_in_word(per_byte, r) for r in range(8)] == \
            [8 * b + bit for b in range(8)]
    assert [_select_in_word(0xFF << 56, r) for r in range(8)] == \
        list(range(56, 64))


@pytest.mark.parametrize("n", [1, 7, 63, 65, 100, 191])
def test_select0_ignores_the_bits_past_n(n, rng):
    """The last word is partly filled: its complement has ones past n,
    which select0 must not count."""
    patterns = [[1] * (n - 1) + [0], [0] * n, [1] * n,
                [rng.getrandbits(1) for _ in range(n)]]
    for bits in patterns:
        v = RsBitVector(bits)
        zeros = [i for i, b in enumerate(bits) if not b]
        assert [v.select0(j) for j in range(len(zeros))] == zeros
        with pytest.raises(OutOfRange):
            v.select0(len(zeros))


def line_events(call):
    """The number of line events traced while ``call()`` runs.  The cyclic
    collector is run before and kept off during the trace: a collection
    that starts inside it, on ``call``'s allocations, runs the finalisers
    of what it frees, such as a suspended generator's ``finally``, and
    their lines would be counted too."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tracer

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(before)
        if enabled:
            gc.enable()
    return count


def test_select_takes_as_many_steps_wherever_the_bit_lies():
    ones, zeros = RsBitVector([1] * 64), RsBitVector([0] * 64)
    assert line_events(lambda: ones.select1(0)) == \
        line_events(lambda: ones.select1(63))
    assert line_events(lambda: zeros.select0(0)) == \
        line_events(lambda: zeros.select0(63))


def test_decode_all_matches_decode(rng):
    cases = [build_plcp(abbab().bwt, abbab().sisa(1), "external")]
    for symbols in ([0, 1], [1, 0, 1, 1, 0, 1, 1, 1]):
        fx = make_fixture(symbols, 2, circular=True)
        cases.append(build_plcp(fx.bwt, fx.sisa(1), "external"))
    for n in (2, 9, 40):
        cases.append(plcp_encode(make_fixture(random_text(rng, n, 4), 4).plcp))
    for _ in range(200):
        n = rng.choice([1, 2, rng.randrange(3, 150)])
        length = n + rng.randrange(2 * n + 9)  # often not a multiple of 8
        ones = set(rng.sample(range(length), n))
        bits = [int(i in ones) for i in range(length)]
        cases.append(PlcpBits(bits, n, shift=rng.randrange(n)))
    assert any(k.shift for k in cases[:3])
    assert any(k.n == 1 for k in cases) and any(k.k.n % 8 for k in cases)
    for k in cases:
        assert k.decode_all() == [k.decode(i) for i in range(k.n)]
    with pytest.raises(OutOfRange):  # as decode(1) would
        PlcpBits([0, 1, 0], 2).decode_all()


def test_plcp_encode_examples():
    assert plcp_encode([0, 3, 2, 1, 0, 0, 0]).bit_string() == "01000011110101"
    assert plcp_encode([2, 1, 0, 0, 3]).bit_string() == "0001110100001"
    assert plcp_encode([3, 2, 1, 0, 0]).bit_string() == "0000111101"
    with pytest.raises(DiffBoundViolation):
        plcp_encode([3, 1])


def test_plcp_decode_examples():
    k = plcp_encode([0, 3, 2, 1, 0, 0, 0])
    assert k.decode(1) == 3
    assert plcp_encode([2, 1, 0, 0, 3]).decode(0) == 2
    with pytest.raises(OutOfRange):
        k.decode(7)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 128), st.sampled_from([2, 4, 16]), st.integers(0, 9999))
def test_plcp_codec_roundtrip(n, sigma, seed):
    rng = random.Random(seed)
    fx = make_fixture(random_text(rng, n, sigma), sigma)
    k = plcp_encode(fx.plcp)
    bs = k.bit_string()
    assert len(bs) == 2 * n and bs.count("1") == n
    assert k.decode_all() == list(fx.plcp.values)


def test_wavelet_banana():
    fx = banana()
    wt = WaveletTree(fx.bwt.to_list(), fx.bwt.sigma)
    assert wt.select(3, 0) == 1
    assert wt.interval_symbols(1, 4) == [(2, 0, 1), (3, 0, 2)]


def test_wavelet_matches_scans(rng):
    for _ in range(40):
        n = rng.randrange(1, 64)
        sigma = rng.choice([2, 3, 5, 16, 40])
        s = [rng.randrange(sigma) for _ in range(n)]
        wt = WaveletTree(s, sigma)
        for sym in set(s):
            occ = [i for i, c in enumerate(s) if c == sym]
            for j, pos in enumerate(occ):
                assert wt.select(sym, j) == pos
        lo = rng.randrange(n + 1)
        hi = rng.randrange(lo, n + 1)
        expect = [(sym, s[:lo].count(sym), s[lo:hi].count(sym))
                  for sym in sorted(set(s[lo:hi]))]
        assert wt.interval_symbols(lo, hi) == expect
