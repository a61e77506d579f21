import random

import pytest

from conftest import abbab, banana, circular_bwt_raw, make_fixture
from plcpbits import (StreamFactory, circular, detect_period,
                      rank_to_position, shrink_bwt)
from plcpbits.circular import STRATEGIES
from plcpbits.cli import build_plcp
from plcpbits.errors import (CircularPowerInput, NotAPower, OutOfRange,
                             UnknownStrategy)
from plcpbits.textcore import Bwt, brute_period, sample_isa


def test_detect_period_examples():
    report = detect_period(Bwt([1, 1, 0, 0, 0, 0], 2, circular=True))
    assert (report.period, report.exponent) == (3, 2)  # circular aabaab
    report = detect_period(Bwt([1, 1, 1, 0, 0], 2, circular=True))
    assert (report.period, report.exponent) == (5, 1)  # circular abbab
    report = detect_period(Bwt([0, 0, 0, 0], 1, circular=True))
    assert (report.period, report.exponent) == (1, 4)


def test_detect_period_vs_brute_force(rng):
    for _ in range(120):
        m = rng.randrange(1, 33)
        e = rng.randrange(1, 9)
        w = [rng.randrange(3) for _ in range(m)]
        body = w * e
        bwt = circular_bwt_raw(body, 3)
        report = detect_period(bwt)
        p = brute_period(body)
        assert report.period == p
        assert report.exponent == len(body) // p


def test_shrink_examples():
    shrunk = shrink_bwt(Bwt([1, 1, 0, 0, 0, 0], 2, circular=True))
    assert shrunk.to_list() == [1, 0, 0]  # root aab
    assert shrink_bwt(Bwt([0, 0, 0, 0], 1, circular=True)).to_list() == [0]
    with pytest.raises(NotAPower):
        shrink_bwt(Bwt([1, 1, 1, 0, 0], 2, circular=True))


def test_shrink_equals_direct_root_build(rng):
    for _ in range(30):
        m = rng.randrange(2, 17)
        e = rng.randrange(2, 6)
        w = [rng.randrange(2) for _ in range(m)]
        if brute_period(w) < m or len(set(w)) < 2:
            continue
        power_bwt = circular_bwt_raw(w * e, 2)
        root = make_fixture(w, 2, circular=True)
        shrunk = shrink_bwt(power_bwt)
        assert shrunk.to_list() == root.bwt.to_list()
        sisa = root.sisa(1)
        a = build_plcp(shrunk, sisa, "external")
        b = build_plcp(root.bwt, sisa, "external")
        assert a.bit_string() == b.bit_string() and a.shift == b.shift


def test_build_circular_all_strategies():
    fx = abbab()
    for strategy in STRATEGIES:
        k = build_plcp(fx.bwt, fx.sisa(1), strategy)
        assert k.bit_string() == "0000111101"
        assert k.shift == 4
        assert k.decode_all() == [2, 1, 0, 0, 3]


def test_two_symbol_circular():
    fx = make_fixture([0, 1], 2, circular=True)
    k = build_plcp(fx.bwt, fx.sisa(1), "external")
    assert k.bit_string() == "0101"
    assert k.decode_all() == [0, 0]


def test_rejects_powers_and_tiny():
    with pytest.raises(CircularPowerInput):
        build_plcp(Bwt([1, 1, 0, 0], 2, circular=True), None, "external")
    with pytest.raises(CircularPowerInput):
        build_plcp(Bwt([0], 1, circular=True), None, "external")


def test_arguments_checked_before_any_work(monkeypatch):
    """An unknown strategy, ``internal`` among them (the wavelet-tree
    rounds are a test oracle, not a strategy), or a cutoff given to a
    strategy other than the hybrid, fails before the period scan and the
    anchor walk."""
    def no_work(*args):
        raise AssertionError("the build started before its checks")
    monkeypatch.setattr(circular, "detect_period", no_work)
    monkeypatch.setattr(circular, "rank_to_position", no_work)
    fx = abbab()
    for strategy in ("bogus", "internal"):
        with pytest.raises(UnknownStrategy):
            build_plcp(fx.bwt, fx.sisa(1), strategy)
    with pytest.raises(OutOfRange, match="hybrid strategy only"):
        build_plcp(fx.bwt, fx.sisa(1), "external", cutoff=0)


def test_rank_to_position_identity(rng):
    for _ in range(15):
        n = rng.randrange(2, 48)
        body = [rng.randrange(2) for _ in range(n)]
        if brute_period(body) < n or len(set(body)) < 2:
            continue
        fx = make_fixture(body, 2, circular=True)
        rate = rng.choice([1, 2, max(1, n.bit_length())])
        sisa = fx.sisa(rate)
        for p in range(n):
            assert rank_to_position(fx.bwt, sisa, fx.isa[p]) == p


def test_external_builds_keep_the_bwt_streamed(monkeypatch):
    """External and hybrid builds never materialise the BWT in memory."""
    fixtures = [banana(), abbab()]

    def materialise(self):
        raise AssertionError("the BWT was materialised")
    monkeypatch.setattr(Bwt, "to_list", materialise)
    for fx in fixtures:
        for strategy, cutoff in [("external", None), ("hybrid", 0)]:
            k = build_plcp(fx.bwt, fx.sisa(2), strategy, cutoff=cutoff,
                           factory=StreamFactory())
            assert k.decode_all() == list(fx.plcp.values)


def test_builds_release_every_stream():
    """A build leaves no stream registered with its factory."""
    for fx in [banana(), abbab()]:
        for strategy, cutoff in [("external", None), ("hybrid", 1),
                                 ("hybrid", None)]:
            f = StreamFactory()
            k = build_plcp(fx.bwt, fx.sisa(2), strategy, cutoff=cutoff,
                           factory=f)
            assert k.decode_all() == list(fx.plcp.values)
            assert f.streams == [], (strategy, cutoff,
                                     [s.name for s in f.streams])


def test_circular_random_decode(rng):
    tested = 0
    while tested < 40:
        n = rng.randrange(2, 48)
        sigma = rng.choice([2, 3, 4])
        body = [rng.randrange(sigma) for _ in range(n)]
        if brute_period(body) < n or len(set(body)) < 2:
            continue
        fx = make_fixture(body, sigma, circular=True)
        rate = rng.choice([1, 2, max(1, n.bit_length())])
        strategy = rng.choice(STRATEGIES)
        f = StreamFactory()
        k = build_plcp(fx.bwt, fx.sisa(rate), strategy, factory=f)
        assert k.decode_all() == list(fx.plcp.values)
        bits = k.bit_string()
        assert len(bits) == 2 * n and bits.count("1") == n
        assert f.total_non_sequential() == 0
        tested += 1
