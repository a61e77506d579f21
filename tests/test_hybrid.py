import random
import tracemalloc
from itertools import repeat

import pytest

from conftest import banana, make_fixture, random_text
from oracle_rounds import run_rounds_internal
from plcpbits import Bwt, StreamFactory, build_plcp, hybrid, reorder
from plcpbits.emlayer import STREAM_BUFFER_ITEMS
from plcpbits.hybrid import KERNELS, hybrid_pd, irreducible_missing
from plcpbits.reorder import annotate_positions
from plcpbits.rounds import run_rounds_external
from plcpbits.textcore import brute_period, naive_lcp_pair


def test_banana_cutoff_two():
    fx = banana()
    k = build_plcp(fx.bwt, fx.sisa(3), "hybrid", cutoff=2)
    assert k.bit_string() == "01000011110101"


def _marks(f, marks):
    """A finished bit stream of 0/1 marks, one per rank."""
    stream = f.bits("starts")
    stream.append_chunk(bytes(marks))
    return stream.finish()


def _missing(bwt, set_marks):
    """``irreducible_missing``'s entries, one a missing rank, unpacked into
    pairs (r, q or None)."""
    pairs = map(divmod, irreducible_missing(bwt, set_marks), repeat(bwt.n + 1))
    return [(r, q - 1 if q else None) for r, q in pairs]


def test_irreducible_missing_banana():
    fx = banana()
    f = StreamFactory()
    # after two rounds exactly ranks 3 and 6 lack values
    r = run_rounds_internal(fx.bwt, max_rounds=2, factory=f)
    unset = [rank for rank, m in enumerate(r.set_marks.items()) if not m]
    assert unset == [3, 6]
    # BWT a n n b $ a a: no b before rank 3
    assert _missing(fx.bwt, r.set_marks) == [(3, None)]
    assert _missing(fx.bwt, _marks(f, [1] * 7)) == []
    marks = [1] * 7
    marks[0] = 0
    assert _missing(fx.bwt, _marks(f, marks)) == [(0, None)]
    # rank 5 starts a run of a's after the a at rank 0
    marks[0], marks[5] = 1, 0
    assert _missing(fx.bwt, _marks(f, marks)) == [(5, 0)]


def _missing_per_rank(symbols, marks):
    """``irreducible_missing`` one rank at a time."""
    out, last = [], {}
    for r, (sym, mark) in enumerate(zip(symbols, marks)):
        if not mark and (r == 0 or symbols[r - 1] != sym):
            out.append((r, last.get(sym)))
        last[sym] = r
    return out


@pytest.mark.parametrize("capacity", [1, 3, 7, STREAM_BUFFER_ITEMS])
@pytest.mark.parametrize("sigma", [1, 2, 5, 256])
def test_irreducible_missing_matches_per_rank(rng, sigma, capacity):
    for n in (1, 2, 40, 600):
        # runs of one to three symbols, so that not every rank is a head
        symbols = bytes(sym for _ in range(n) for sym in
                        [rng.randrange(sigma)] * rng.randrange(1, 4))[:n]
        bwt = Bwt(symbols, sigma)
        f = StreamFactory(capacity=capacity)
        bwt.stream(f)
        for unset in (0.0, 0.1, 0.5, 1.0):
            marks = bytes(rng.random() >= unset for _ in range(n))
            expected = _missing_per_rank(symbols, marks)
            stream = _marks(f, marks)
            assert _missing(bwt, stream) == expected
            f.release(stream)


def test_kernel_examples():
    fx = banana()
    assert KERNELS["direct"](fx.text, 1, 3) == 3
    assert KERNELS["direct"](fx.text, 0, 1) == 0


def test_annotate_positions(rng):
    for _ in range(15):
        n = rng.randrange(2, 80)
        fx = make_fixture(random_text(rng, n, 4), 4)
        rate = rng.choice([1, 3, max(1, n.bit_length())])
        ranks = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        got = annotate_positions(fx.bwt, fx.sisa(rate), ranks)
        assert got == {r: fx.sa[r] for r in ranks}


def test_all_cutoffs_match_oracle(rng):
    def check(fx, rate, cutoffs, capacity=STREAM_BUFFER_ITEMS):
        for cutoff in cutoffs:
            f = StreamFactory(capacity=capacity)
            k = build_plcp(fx.bwt, fx.sisa(rate), "hybrid", cutoff=cutoff,
                           factory=f)
            assert k.bit_string() == fx.k_bits(), (fx.n, rate, cutoff)
            assert f.total_non_sequential() == 0

    for _ in range(20):
        n = rng.randrange(2, 100)
        sigma = rng.choice([2, 4, 16])
        fx = make_fixture(random_text(rng, n, sigma), sigma)
        rate = rng.choice([1, 3, max(1, n.bit_length())])
        check(fx, rate, [0, 1, 2, max(1, n.bit_length()), n])
    # repeated units keep many ranks active at the cutoff
    for _ in range(8):
        sigma = rng.choice([2, 4, 16])
        unit = random_text(rng, rng.randrange(2, 12), sigma)[:-1]
        fx = make_fixture(unit * rng.randrange(3, 9) + [0], sigma)
        rate = rng.choice([1, 3, max(1, fx.n.bit_length())])
        check(fx, rate, range(max(fx.lcp.values) + 2))
    # streams cut into chunks of three items
    check(fx, rate, range(max(fx.lcp.values) + 2), capacity=3)


def test_circular_every_cutoff_matches_oracle(rng):
    """LCP[LF(r)] from the positions before r's and its predecessor q's,
    which wrap round a circular text."""
    for sigma in (2, 3, 4, 16):
        built = 0
        while built < 5:
            n = rng.randrange(2, 30)
            symbols = [rng.randrange(sigma) for _ in range(n)]
            if brute_period(symbols) < n:
                continue
            built += 1
            fx = make_fixture(symbols, sigma, circular=True)
            for rate in {1, 3, max(1, (n - 1).bit_length()), n + 2}:
                for capacity in (3, STREAM_BUFFER_ITEMS):
                    f = StreamFactory(capacity=capacity)
                    for cutoff in range(max(fx.lcp.values) + 2):
                        k = build_plcp(fx.bwt, fx.sisa(rate), "hybrid",
                                       cutoff=cutoff, factory=f)
                        assert k.decode_all() == list(fx.plcp.values), \
                            (symbols, rate, capacity, cutoff)
                    assert f.total_non_sequential() == 0


def test_one_walk_per_build(monkeypatch, rng):
    """Every LF walk builds one occurrence directory: a linear hybrid or
    external build walks once, a circular hybrid build adds its anchor
    walk.  The one walk of a linear hybrid build ends within min(rate, n)
    LF passes."""
    directories, passes = [], []
    lf_directory, lf_pass = reorder._lf_directory, reorder._lf_pass

    def counted_directory(*args):
        directories.append(1)
        return lf_directory(*args)

    def counted_pass(*args):
        passes.append(1)
        return lf_pass(*args)
    monkeypatch.setattr(reorder, "_lf_directory", counted_directory)
    monkeypatch.setattr(reorder, "_lf_pass", counted_pass)

    def walk(fx, rate, strategy, cutoff=None):
        directories.clear()
        passes.clear()
        k = build_plcp(fx.bwt, fx.sisa(rate), strategy, cutoff=cutoff,
                       factory=StreamFactory())
        assert k.decode_all() == list(fx.plcp.values), (fx.n, rate, cutoff)
        return len(directories), len(passes)

    for _ in range(4):
        unit = random_text(rng, rng.randrange(2, 9), 4)[:-1]
        fx = make_fixture(unit * rng.randrange(3, 7) + [0], 4)
        for rate in (1, 3, fx.n + 2):
            for cutoff in (0, 1, None):
                directories_made, passes_made = walk(fx, rate, "hybrid",
                                                     cutoff)
                assert directories_made == 1
                assert passes_made <= min(rate, fx.n)
            assert walk(fx, rate, "external")[0] == 1
    fx = make_fixture([0, 1, 1, 0, 2, 1, 1, 0, 2], 3, circular=True)
    for cutoff in (0, 1, None):
        assert walk(fx, 3, "hybrid", cutoff)[0] == 2


def test_kernel_budget(monkeypatch, rng):
    """The kernel runs at most ~3 comparisons per missing irreducible rank."""
    calls = []

    def counting_kernel(text, p, q):
        calls.append(1)
        return naive_lcp_pair(text, p, q)
    monkeypatch.setitem(KERNELS, "direct", counting_kernel)

    partial = 0
    for _ in range(10):
        n = rng.randrange(4, 80)
        fx = make_fixture(random_text(rng, n, 4), 4)
        for cutoff in [0, 2]:
            from plcpbits.rounds import run_rounds_external
            r = run_rounds_external(fx.bwt, StreamFactory(),
                                    max_rounds=cutoff)
            missing = _missing(fx.bwt, r.set_marks)
            n_im = len(missing)
            # the kernel's patch covers every unset rank the rounds left
            # a count at: PD needs no zeroing
            marks = list(r.set_marks.rewind().items())
            unset = {rank for rank, c in enumerate(r.pd.counts())
                     if c and not marks[rank]}
            assert unset <= {rank for rank, _ in missing}, (n, cutoff)
            partial += len(unset)
            calls.clear()
            hybrid_pd(fx.bwt, fx.sisa(1), cutoff, factory=StreamFactory())
            assert len(calls) <= 3 * n_im + 2
    assert partial > 0


def test_full_cutoff_skips_kernel(monkeypatch):
    """Rounds run to the last leave the kernel nothing to compute: the
    hybrid's at a cutoff of n, and the external strategy's always, on
    1^200 0 too, whose 200 rounds are far above the hybrid's cap of
    3*ceil(log2 201) = 24."""
    def exploding_kernel(text, p, q):
        raise AssertionError("kernel must not run when nothing is missing")
    monkeypatch.setitem(KERNELS, "direct", exploding_kernel)

    for fx in (banana(), make_fixture([1] * 200 + [0], 2)):
        for strategy, cutoff in [("hybrid", fx.n), ("external", None)]:
            k = build_plcp(fx.bwt, fx.sisa(3), strategy, cutoff=cutoff)
            assert k.bit_string() == fx.k_bits(), (fx.n, strategy)


def test_rounds_that_set_every_rank_skip_the_missing_scan(monkeypatch, rng):
    """Once the rounds have set all n ranks none can be missing, so the
    build does not scan the BWT's run heads for them: on random text the
    hybrid's default stop rule never fires, a full cutoff ends no round
    early, and the external strategy's rounds run to the last, on 1^200 0
    too, which needs more rounds than the hybrid's cap."""
    def unreachable(bwt, set_marks):
        raise AssertionError("no rank is missing, so nothing to scan")
    monkeypatch.setattr(hybrid, "irreducible_missing", unreachable)

    def build(fx, strategy, cutoff=None):
        k = build_plcp(fx.bwt, fx.sisa(4), strategy, cutoff=cutoff,
                       factory=StreamFactory())
        assert k.decode_all() == list(fx.plcp.values), (fx.n, strategy)

    for n in (300, 2000):
        fx = make_fixture(random_text(rng, n, 4), 4)
        for cutoff in (None, n):
            build(fx, "hybrid", cutoff)
        build(fx, "external")
    # 200 rounds, which the hybrid's stop rule and cap would cut short
    fx = make_fixture([1] * 200 + [0], 2)
    build(fx, "hybrid", fx.n)
    build(fx, "external")


def test_irreducible_sum_sanity(rng):
    # total irreducible LCP mass stays within the 2n log2 n envelope
    import math
    for _ in range(10):
        n = rng.randrange(4, 120)
        fx = make_fixture(random_text(rng, n, 4), 4)
        irr = [fx.lcp[r] for r in range(n)
               if r == 0 or fx.bwt.to_list()[r - 1] != fx.bwt.to_list()[r]]
        assert sum(irr) <= 2 * n * math.log2(n)


@pytest.fixture
def hybrid_rounds(monkeypatch):
    """Rounds run by a ``build_plcp`` hybrid build, its bits and, without a
    cutoff, its cap of 3*ceil(log2 n) rounds checked."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(run_rounds_external(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(hybrid, "run_rounds_external", recording)

    def rounds(fx, rate=16, cutoff=None):
        seen.clear()
        k = build_plcp(fx.bwt, fx.sisa(rate), "hybrid", cutoff=cutoff,
                       factory=StreamFactory())
        assert k.bit_string() == fx.k_bits(), (fx.n, rate, cutoff)
        if cutoff is None:
            assert seen[0].rounds <= 3 * (fx.n - 1).bit_length()
        return seen[0].rounds
    return rounds


def near_copies(rng, unit_length, copies=8, mutations=3):
    unit = [rng.randrange(1, 5) for _ in range(unit_length)]
    body = []
    for _ in range(copies):
        copy = list(unit)
        for pos in rng.sample(range(unit_length), mutations):
            copy[pos] = copy[pos] % 4 + 1
        body += copy
    return body + [0]


def test_hybrid_heap_on_near_copies():
    """On 8 near-copies of one unit, the kernel's text is a byte a symbol,
    the walk's keys, positions and patch are typed arrays, and its fused
    column, read-out and emit_k work a fraction of a buffer at a time: a
    memory-stream hybrid build peaks at most 13 B/symbol of Python heap
    above its entry at n about 10**4, and 12 at 4 * 10**4 (9.8 and 8.8
    here; 22.1 and 18.9 with the missing ranks as tuples, the ranks to
    find in a set, their positions in a dict, whole buffers read into "Q"
    and K coded as 0/1 text)."""
    for unit, bound in ((1250, 13), (5000, 12)):
        fx = make_fixture(near_copies(random.Random(1), unit), 5)
        sisa = fx.sisa(16)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            k = build_plcp(fx.bwt, sisa, "hybrid", factory=StreamFactory())
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert k.bit_string() == fx.k_bits()
        assert peak <= bound * fx.n, (fx.n, peak / fx.n)


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("strategy, cutoff", [("external", None),
                                              ("hybrid", 2)])
def test_pd_planes_released_before_the_walk(monkeypatch, tmp_path, backend,
                                            strategy, cutoff):
    """PD's planes are released once the walk's column is built: no "pd"
    stream is live when the walk's first LF pass starts."""
    fx = make_fixture(random_text(random.Random(3), 600, 5), 5)
    live = []
    lf_pass = reorder._lf_pass

    def spy(bwt, directory, cursors, step, factory, *rest):
        if not live:
            live.append([s.name for s in factory.streams])
        return lf_pass(bwt, directory, cursors, step, factory, *rest)
    monkeypatch.setattr(reorder, "_lf_pass", spy)
    with StreamFactory(str(tmp_path) if backend == "file" else None) as f:
        k = build_plcp(fx.bwt, fx.sisa(5), strategy, cutoff=cutoff,
                       factory=f)
    assert k.bit_string() == fx.k_bits()
    assert live and "pd" not in live[0], live


def full_rounds(fx):
    return run_rounds_external(fx.bwt, StreamFactory()).rounds


def test_default_stops_at_two_rounds_on_one_run(hybrid_rounds):
    for k in (500, 1200):
        assert hybrid_rounds(make_fixture([1] * k + [0], 2)) <= 2


def test_default_stops_early_on_near_copies(hybrid_rounds):
    for seed in range(3):
        fx = make_fixture(near_copies(random.Random(seed), 250), 5)
        rounds = hybrid_rounds(fx)
        assert rounds < 3 * (fx.n - 1).bit_length()
        assert 10 * rounds < max(fx.lcp.values)


def test_default_runs_every_round_on_random_text(hybrid_rounds):
    rng = random.Random(7)
    for n in (300, 3000):
        fx = make_fixture(random_text(rng, n, 4), 4)
        for rate in (4, 16):
            assert hybrid_rounds(fx, rate) == full_rounds(fx)


def test_explicit_cutoff_is_exact(hybrid_rounds):
    """An explicit cutoff overrides both the stop rule and its cap."""
    fx = make_fixture(near_copies(random.Random(1), 120), 5)
    needed = full_rounds(fx)
    default = hybrid_rounds(fx)
    cap = 3 * (fx.n - 1).bit_length()
    assert default < cap < needed
    for cutoff in (0, 1, default, default + 3, cap + 5, needed - 1,
                   needed + 5):
        assert hybrid_rounds(fx, cutoff=cutoff) == min(cutoff, needed)
