import random

import pytest

from conftest import abbab, banana, make_fixture, random_text
from plcpbits import StreamFactory
from plcpbits.errors import NotIncreasing, OutOfRange
from plcpbits.rounds import (IntervalList, PdBits, run_rounds_external,
                             run_rounds_internal)


def expected_pd_counts(fx):
    """Rank-order counts from the PLCP oracle (circular predecessor)."""
    n = fx.n
    v = fx.plcp.values
    return [v[fx.sa[r]] - v[(fx.sa[r] + n - 1) % n] + 1 for r in range(n)]


def test_interval_list_roundtrip():
    il = IntervalList.from_pairs([(0, 1), (1, 4), (4, 5), (5, 7)])
    assert list(il) == [(0, 1), (1, 4), (4, 5), (5, 7)]
    assert il.is_partition(7)
    assert not IntervalList.from_pairs([(0, 1), (2, 3)]).is_partition(3)
    with pytest.raises(NotIncreasing):
        IntervalList.from_pairs([(0, 3), (2, 5)])
    with pytest.raises(OutOfRange):
        IntervalList.single(2, 2)


def test_pd_bits_counts():
    pd = PdBits.from_counts([1, 1, 0, 4, 1, 0, 0])
    assert pd.bit_string() == "01011000010111"
    assert pd.counts() == [1, 1, 0, 4, 1, 0, 0]


def test_internal_banana():
    fx = banana()
    r = run_rounds_internal(fx.bwt)
    assert r.pd.bit_string() == "01011000010111"
    assert r.rounds == 4  # max LCP 3, plus one


def test_internal_tiny():
    fx = make_fixture([1, 0], 2)
    assert run_rounds_internal(fx.bwt).pd.bit_string() == "0101"


def test_internal_worst_case_rounds():
    fx = make_fixture([1] * 7 + [0], 2)
    assert run_rounds_internal(fx.bwt).rounds == 7  # n-1 for 1^{n-1}0


def test_external_matches_internal_banana():
    fx = banana()
    f = StreamFactory()
    r = run_rounds_external(fx.bwt, f)
    assert r.pd.bit_string() == "01011000010111"
    assert r.rounds == 4
    assert f.total_non_sequential() == 0


def test_external_circular_abbab():
    fx = abbab()
    r = run_rounds_external(fx.bwt, StreamFactory())
    bits = r.pd.bit_string()
    assert bits.count("1") == 5 and bits.count("0") == 5
    assert r.pd.counts() == expected_pd_counts(fx)


def test_strategies_agree(rng):
    for _ in range(40):
        n = rng.randrange(2, 100)
        sigma = rng.choice([2, 4, 16])
        fx = make_fixture(random_text(rng, n, sigma), sigma)
        a = run_rounds_internal(fx.bwt)
        b = run_rounds_external(fx.bwt, StreamFactory())
        assert a.pd.bit_string() == b.pd.bit_string()
        assert a.rounds == b.rounds == max(fx.lcp.values) + 1
        assert a.pd.counts() == expected_pd_counts(fx)


def test_value_set_in_lcp_round(rng):
    """A rank becomes set exactly in the round equal to its LCP value."""
    for _ in range(10):
        n = rng.randrange(2, 64)
        fx = make_fixture(random_text(rng, n, 4), 4)
        for cutoff in range(max(fx.lcp.values) + 2):
            r = run_rounds_internal(fx.bwt, max_rounds=cutoff)
            for rank in range(n):
                assert bool(r.set_marks[rank]) == (fx.lcp[rank] < cutoff)


def test_external_rewind_budget(rng):
    """No stream is rewound more than a few times per round."""
    for _ in range(8):
        n = rng.randrange(8, 120)
        fx = make_fixture(random_text(rng, n, 4), 4)
        f = StreamFactory(capacity=64)
        r = run_rounds_external(fx.bwt, f)
        assert f.total_non_sequential() == 0
        assert f.max_rewinds() <= 8 * r.rounds
