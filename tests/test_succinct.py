import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import banana, make_fixture, random_text
from plcpbits.errors import DiffBoundViolation, OutOfRange, TruncatedCode
from plcpbits.succinct import (GammaStream, RsBitVector, WaveletTree,
                               plcp_encode)


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
def test_rank_select_consistency(bits):
    v = RsBitVector(bits)
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
    wt = fx.bwt.wavelet()
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
