import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abbab, banana, make_fixture, random_text
from plcpbits import Text, build_suffix_array, invert_sa, sample_isa
from plcpbits.errors import (AlphabetTooLarge, CircularPowerInput,
                             OutOfRange, RateMismatch)
from plcpbits.textcore import SuffixArray, brute_period, naive_lcp_pair


def test_banana_structures():
    fx = banana()
    assert fx.sa.values == (6, 5, 3, 1, 0, 4, 2)
    assert fx.isa.values == (4, 3, 6, 2, 5, 1, 0)
    assert fx.lcp.values == (0, 0, 1, 3, 0, 0, 2)
    assert fx.plcp.values == (0, 3, 2, 1, 0, 0, 0)
    assert fx.bwt.to_list() == [1, 3, 3, 2, 0, 1, 1]
    assert fx.bwt.d_array == [0, 1, 4, 5, 7]


def test_single_terminator():
    fx = make_fixture([1, 0], 2)
    assert fx.sa.values == (1, 0)
    assert fx.lcp.values == (0, 0)


def test_circular_abbab():
    fx = abbab()
    assert fx.sa.values == (3, 0, 2, 4, 1)
    assert fx.lcp.values == (0, 2, 0, 3, 1)
    assert fx.plcp.values == (2, 1, 0, 0, 3)
    assert fx.bwt.to_list() == [1, 1, 1, 0, 0]


def test_circular_babba_rotation():
    fx = make_fixture([1, 0, 1, 1, 0], 2, circular=True)
    assert fx.plcp.values == (3, 2, 1, 0, 0)


def test_circular_power_rejected():
    with pytest.raises(CircularPowerInput):
        build_suffix_array(Text([0, 1, 0, 1], 2, circular=True))


def test_text_validation():
    with pytest.raises(OutOfRange):
        Text([1, 2, 1], 3)  # no terminator
    with pytest.raises(OutOfRange):
        Text([0, 1, 0], 2)  # terminator repeated
    with pytest.raises(OutOfRange):
        Text([5, 0], 3)  # symbol out of alphabet
    with pytest.raises(OutOfRange):
        Text([], 1)


def test_text_holds_one_byte_per_symbol():
    """Any iterable of ints becomes bytes; the symbols are checked before
    sigma, so an out-of-range symbol is OutOfRange even above 256."""
    for symbols in ([2, 1, 3, 1, 3, 1, 0], iter([2, 1, 3, 1, 3, 1, 0]),
                    bytes([2, 1, 3, 1, 3, 1, 0])):
        text = Text(symbols, 4)
        assert text.symbols == b"\x02\x01\x03\x01\x03\x01\x00"
        assert isinstance(text.symbols, bytes) and len(text) == 7
    assert Text([255, 0], 256).at(0) == 255
    for symbols, sigma in (([], 300), (iter([]), 2), ([-1, 0], 2),
                           ([-1, 0], 300), ([2, 0], 2), ([300, 0], 300),
                           ([256, 0], 256)):
        with pytest.raises(OutOfRange):
            Text(symbols, sigma)
    with pytest.raises(AlphabetTooLarge):
        Text([5, 0], 257)


def test_invert_sa_examples():
    assert invert_sa(SuffixArray([6, 5, 3, 1, 0, 4, 2])).values \
        == (4, 3, 6, 2, 5, 1, 0)
    assert invert_sa(SuffixArray([0])).values == (0,)
    assert invert_sa(SuffixArray([1, 0])).values == (1, 0)


@given(st.permutations(range(9)))
def test_invert_is_involution(perm):
    sa = SuffixArray(perm)
    twice = invert_sa(SuffixArray(invert_sa(sa).values))
    assert twice.values == tuple(perm)


def test_naive_lcp_examples():
    fx = banana()
    assert naive_lcp_pair(fx.text, 1, 3) == 3
    assert naive_lcp_pair(abbab().text, 2, 4) == 3
    with pytest.raises(OutOfRange):
        naive_lcp_pair(fx.text, 2, 2)


def test_sample_isa_banana():
    fx = banana()
    assert list(fx.sisa(3).ranks) == [4, 2, 0]
    assert len(fx.sisa(1)) == 7
    assert list(fx.sisa(7).ranks) == [4]
    with pytest.raises(OutOfRange):
        sample_isa(fx.isa, 0)


def test_rate_mismatch_detected():
    from plcpbits import build_plcp
    from plcpbits.textcore import SampledIsa
    fx = banana()
    bad = SampledIsa(rate=3, n=7, ranks=(4, 2))  # one sample short
    with pytest.raises(RateMismatch):
        build_plcp(fx.bwt, bad, "external")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 64), st.sampled_from([2, 4, 16]), st.integers(0, 9999))
def test_plcp_difference_bound(n, sigma, seed):
    rng = random.Random(seed)
    fx = make_fixture(random_text(rng, n, sigma), sigma)
    v = fx.plcp.values
    assert v[-1] == 0
    assert all(v[i] >= v[i - 1] - 1 for i in range(1, len(v)))


def test_kasai_matches_pairwise(rng):
    for _ in range(25):
        n = rng.randrange(2, 64)
        fx = make_fixture(random_text(rng, n, 4), 4)
        for r in range(1, n):
            assert fx.lcp[r] == naive_lcp_pair(
                fx.text, fx.sa[r - 1], fx.sa[r]
            )


def test_doubling_matches_direct_sort(rng):
    """The large-input suffix sorter agrees with plain comparison."""
    import plcpbits.textcore as tc
    old = tc._DIRECT_SORT_LIMIT
    tc._DIRECT_SORT_LIMIT = 8
    try:
        for _ in range(30):
            n = rng.randrange(2, 80)
            body = random_text(rng, n, 3)
            fast = build_suffix_array(Text(body, 3))
            tc._DIRECT_SORT_LIMIT = 10 ** 9
            slow = build_suffix_array(Text(body, 3))
            tc._DIRECT_SORT_LIMIT = 8
            assert fast.values == slow.values
        for _ in range(30):
            n = rng.randrange(2, 40)
            body = [rng.randrange(3) for _ in range(n)]
            if brute_period(body) < n or len(set(body)) < 2:
                continue
            fast = build_suffix_array(Text(body, 3, circular=True))
            tc._DIRECT_SORT_LIMIT = 10 ** 9
            slow = build_suffix_array(Text(body, 3, circular=True))
            tc._DIRECT_SORT_LIMIT = 8
            assert fast.values == slow.values
    finally:
        tc._DIRECT_SORT_LIMIT = old


def test_brute_period():
    assert brute_period([0, 1, 0, 1]) == 2
    assert brute_period([0, 1, 1]) == 3
    assert brute_period([7]) == 1
