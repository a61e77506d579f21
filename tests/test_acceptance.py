"""Acceptance gate: ten end-to-end criteria, one printed verdict each.

The shared corpus (500 random texts plus adversarial shapes) and every
strategy's build of it are module-scoped fixtures, so the
strategy-equivalence, size and round-count criteria check the same
artifacts, each of them also when run on its own.
"""

import math
import random
import time

import pytest

from conftest import (abbab, adversarial_texts, banana, circular_bwt_raw,
                      de_bruijn_like, make_fixture, random_text)
from oracle_rounds import reorder_pd, run_rounds_internal
from plcpbits import (StreamFactory, build_plcp, detect_period, plcp_encode,
                      reconstruct_text, run_rounds_external, shrink_bwt)
from plcpbits.reorder import emit_k, position_counts
from plcpbits.succinct import GammaStream
from plcpbits.rounds import PdBits, _round
from plcpbits.textcore import Text, brute_period

_SIZES = [2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128, 192,
          256]


def verdict(num, ok, detail):
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260823)
    texts = []
    for _ in range(500):
        n = rng.choice(_SIZES)
        sigma = rng.choice([2, 4, 16])
        texts.append((random_text(rng, n, sigma), sigma))
    for adv in adversarial_texts(n=64, sigma=3):
        texts.append((adv, max(adv) + 1))
    return texts


@pytest.fixture(scope="module")
def builds(corpus):
    """Every strategy's K on every corpus text, for criteria 2 to 4.

    Returns the text index -> (fixture, k strings, round counts) cache,
    the texts whose K differs from the oracle, the build count and the
    seconds taken.
    """
    rng = random.Random(99)
    start = time.monotonic()
    cache = {}
    bad = []
    checked = 0
    for idx, (symbols, sigma) in enumerate(corpus):
        fx = make_fixture(symbols, sigma)
        n = fx.n
        oracle = fx.k_bits()
        rate = rng.choice([1, 3, max(1, math.ceil(math.log2(n)))])
        sisa = fx.sisa(rate)
        ks = {}
        internal = run_rounds_internal(fx.bwt)
        ks["internal"] = reorder_pd(internal.pd, fx.bwt, sisa).bit_string()
        f = StreamFactory()
        external = run_rounds_external(fx.bwt, f)
        ks["external"] = emit_k(position_counts(external.pd, fx.bwt, sisa, f),
                                n).bit_string()
        # None: the stop rule, the default a user gets
        for cutoff in {0, 1, 2, max(1, math.ceil(math.log2(n))), n, None}:
            ks["hybrid/%s" % cutoff] = build_plcp(
                fx.bwt, sisa, "hybrid", cutoff=cutoff).bit_string()
        wrong = [name for name, bits in ks.items() if bits != oracle]
        if wrong:
            bad.append("text %d (n=%d sigma=%d): %s" % (idx, n, sigma, wrong))
        checked += len(ks)
        cache[idx] = (fx, ks, (internal.rounds, external.rounds))
    return cache, bad, checked, time.monotonic() - start


def test_criterion_01_paper_example():
    start = time.monotonic()
    fx = abbab()
    ok = list(fx.plcp.values) == [2, 1, 0, 0, 3]
    ok &= plcp_encode([2, 1, 0, 0, 3]).bit_string() == "0001110100001"
    k = build_plcp(fx.bwt, fx.sisa(1), "external")
    ok &= k.bit_string() == "0000111101"
    ok &= len(k.bit_string()) == 10
    ok &= k.decode_all() == [2, 1, 0, 0, 3]
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    verdict(1, ok, "circular abbab reproduced in %.3fs" % elapsed)


def test_criterion_02_oracle_equivalence(corpus, builds):
    _, bad, checked, elapsed = builds
    for line in bad:
        print("  mismatch on " + line)
    ok = not bad and elapsed < 60.0 and len(corpus) >= 503
    verdict(2, ok, "%d builds on %d texts bit-identical to the Kasai oracle "
            "in %.1fs" % (checked, len(corpus), elapsed))


def test_criterion_03_size_bound(corpus, builds):
    cache = builds[0]
    ok = len(cache) == len(corpus)
    for fx, ks, _ in cache.values():
        for bits in ks.values():
            ok &= len(bits) == 2 * fx.n and bits.count("1") == fx.n
    rng = random.Random(5)
    circ = 0
    while circ < 30:
        n = rng.randrange(2, 64)
        body = [rng.randrange(3) for _ in range(n)]
        if brute_period(body) < n or len(set(body)) < 2:
            continue
        fx = make_fixture(body, 3, circular=True)
        bits = build_plcp(fx.bwt, fx.sisa(1), "external").bit_string()
        ok &= len(bits) == 2 * n and bits.count("1") == n
        circ += 1
    verdict(3, ok, "every K holds exactly 2n bits with n ones "
            "(%d linear + %d circular)" % (len(cache), circ))


def test_criterion_04_round_counts(corpus, builds):
    cache = builds[0]
    ok = len(cache) == len(corpus)
    for fx, _, (internal_rounds, external_rounds) in cache.values():
        want = max(fx.lcp.values) + 1
        ok &= internal_rounds == external_rounds == want
    worst = make_fixture([1] * 63 + [0], 2)
    r_int = run_rounds_internal(worst.bwt).rounds
    r_ext = run_rounds_external(worst.bwt, StreamFactory()).rounds
    ok &= r_int == r_ext == 63
    verdict(4, ok, "both builders run exactly (max LCP)+1 rounds; "
            "1^63 0 takes %d" % r_int)


def test_criterion_05_sequential_access():
    rng = random.Random(17)
    ok = True
    peaks_by_n = {}
    for n, sigma in [(128, 4), (1024, 4), (256, 2), (256, 16)]:
        fx = make_fixture(random_text(rng, n, sigma), sigma)
        f = StreamFactory(capacity=64)
        result = run_rounds_external(fx.bwt, f)
        ok &= f.total_non_sequential() == 0
        ok &= f.max_rewinds() <= 8 * result.rounds
        # no owner may outgrow the fixed buffer capacity, whatever n or sigma
        worst_owner = max(f.meter.peaks.values())
        ok &= worst_owner <= f.capacity
        peaks_by_n[(n, sigma)] = worst_owner
    verdict(5, ok, "external runs: 0 non-sequential reads, <=8 rewinds per "
            "round, peak owner %d items at capacity 64"
            % max(peaks_by_n.values()))


def test_criterion_06_gamma_size():
    rng = random.Random(23)
    ok = True
    for _ in range(400):
        length = rng.randrange(0, 120)
        values = [rng.randrange(0, 50) for _ in range(length)]
        g = GammaStream()
        g.put_all(values)
        ok &= g.total_bits <= length + 2 * sum(values)
    verdict(6, ok, "gamma streams stay within l + 2s bits on 400 arrays")


def test_criterion_07_inverse_sort_identity():
    """The rounds move marks forward through LF only: the next starts at
    LF(r) are the first marks at r, so no inverse sort is needed.  A
    round grows PD by the first marks that are not starts, and a start is
    first, so from a zero PD they are the starts OR the grown counts."""
    rng = random.Random(31)
    ok = True
    for _ in range(1000):
        n = rng.randrange(0, 40)
        sigma = rng.choice([2, 3, 4, 16])
        keys = [rng.randrange(sigma) for _ in range(n)]
        starts = bytes(rng.random() < 0.3 for _ in range(n))
        f = StreamFactory(capacity=16)
        # LF(r) is r's place in the stable sort of the keys
        lf = [0] * n
        for i, r in enumerate(sorted(range(n), key=keys.__getitem__)):
            lf[r] = i
        marks = f.bits("starts")
        marks.append_chunk(starts)
        nxt, pd, _, _ = _round(f.wrap(bytes(keys)), marks.finish(),
                               PdBits(None, n, 16), sigma, f)
        nxt, grown = list(nxt.items()), pd.counts()
        ok &= all(nxt[lf[r]] == starts[r] | grown[r] and
                  not starts[r] & grown[r] for r in range(n))
    verdict(7, ok, "next starts at LF(r) equal the first marks at r on "
            "1000 random streams")


def test_criterion_08_period_detection():
    rng = random.Random(41)
    ok = True
    for _ in range(500):
        n = rng.randrange(1, 33)
        body = [rng.randrange(3) for _ in range(n)]
        report = detect_period(circular_bwt_raw(body, 3))
        ok &= report.period == brute_period(body)
    built = 0
    for _ in range(200):
        m = rng.randrange(1, 33)
        k = rng.randrange(2, 9)
        w = [rng.randrange(2) for _ in range(m)]
        body = w * k
        report = detect_period(circular_bwt_raw(body, 2))
        p = brute_period(body)
        ok &= report.period == p and report.exponent == len(body) // p
        if p == m and len(set(w)) > 1 and built < 20:
            root = make_fixture(w, 2, circular=True)
            shrunk = shrink_bwt(circular_bwt_raw(body, 2))
            a = build_plcp(shrunk, root.sisa(1), "external")
            b = build_plcp(root.bwt, root.sisa(1), "external")
            ok &= a.bit_string() == b.bit_string() and a.shift == b.shift
            built += 1
    verdict(8, ok, "period matches divisor brute force on 500 random + 200 "
            "powers; %d shrink-then-build equalities" % built)


def test_criterion_09_reconstruction(corpus):
    rng = random.Random(53)
    ok = True
    tested = 0
    for symbols, sigma in corpus[:60] + corpus[-3:]:
        fx = make_fixture(symbols, sigma)
        n = fx.n
        for rate in {1, 3, max(1, math.ceil(math.log2(n))), n}:
            got = reconstruct_text(fx.bwt, fx.sisa(rate))
            ok &= got == list(symbols)
            tested += 1
    verdict(9, ok, "reconstruct_text inverted build_bwt in %d runs over "
            "rates {1,3,ceil(log n),n}" % tested)


def test_criterion_10_smoke_benchmark():
    rng = random.Random(61)
    n = 10 ** 6
    body = [rng.randrange(1, 4) for _ in range(n - 1)] + [0]
    fx = make_fixture(body, 4)
    sisa = fx.sisa(max(1, math.ceil(math.log2(n))))
    start = time.monotonic()
    f = StreamFactory()
    result = run_rounds_external(fx.bwt, f)
    k = emit_k(position_counts(result.pd, fx.bwt, sisa, f), n)
    elapsed = time.monotonic() - start
    bits = k.bit_string()
    ok = elapsed < 300.0
    ok &= len(bits) == 2 * n and bits.count("1") == n
    ok &= f.total_non_sequential() == 0
    ok &= all(k.decode(i) == fx.plcp[i] for i in range(0, n, 10007))
    verdict(10, ok, "external build of n=10^6 sigma=4 finished in %.1fs "
            "(%d rounds)" % (elapsed, result.rounds))
