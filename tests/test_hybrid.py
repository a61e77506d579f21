from conftest import banana, make_fixture, random_text
from plcpbits import StreamFactory, run_hybrid
from plcpbits.hybrid import (KERNELS, annotate_positions, hybrid_pd,
                             irreducible_missing, sparse_lcp_kernel_direct)
from plcpbits.rounds import run_rounds_internal


def test_banana_cutoff_two():
    fx = banana()
    k = run_hybrid(fx.bwt, fx.sisa(3), 2)
    assert k.bit_string() == "01000011110101"


def test_irreducible_missing_banana():
    fx = banana()
    # after two rounds exactly ranks 3 and 6 lack values
    r = run_rounds_internal(fx.bwt, max_rounds=2)
    unset = [rank for rank in range(7) if not r.set_marks[rank]]
    assert unset == [3, 6]
    assert irreducible_missing(fx.bwt, r.set_marks) == [3]
    assert irreducible_missing(fx.bwt, [1] * 7) == []
    marks = [1] * 7
    marks[0] = 0
    assert irreducible_missing(fx.bwt, marks) == [0]


def test_kernel_examples():
    fx = banana()
    assert sparse_lcp_kernel_direct(fx.text, 1, 3) == 3
    assert sparse_lcp_kernel_direct(fx.text, 0, 1) == 0
    assert KERNELS["direct"] is sparse_lcp_kernel_direct


def test_annotate_positions(rng):
    for _ in range(15):
        n = rng.randrange(2, 80)
        fx = make_fixture(random_text(rng, n, 4), 4)
        rate = rng.choice([1, 3, max(1, n.bit_length())])
        ranks = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        got = annotate_positions(fx.bwt, fx.sisa(rate), ranks)
        assert got == {r: fx.sa[r] for r in ranks}


def test_all_cutoffs_match_oracle(rng):
    def check(fx, rate, cutoffs):
        for cutoff in cutoffs:
            f = StreamFactory()
            k = run_hybrid(fx.bwt, fx.sisa(rate), cutoff, factory=f)
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


def test_kernel_budget(rng):
    """The kernel runs at most ~3 comparisons per missing irreducible rank."""
    calls = []

    def counting_kernel(text, p, q):
        calls.append(1)
        return sparse_lcp_kernel_direct(text, p, q)

    for _ in range(10):
        n = rng.randrange(4, 80)
        fx = make_fixture(random_text(rng, n, 4), 4)
        for cutoff in [0, 2]:
            from plcpbits.rounds import run_rounds_external
            r = run_rounds_external(fx.bwt, StreamFactory(),
                                    max_rounds=cutoff)
            n_im = len(irreducible_missing(fx.bwt, r.set_marks))
            calls.clear()
            hybrid_pd(fx.bwt, fx.sisa(1), cutoff, kernel=counting_kernel,
                      factory=StreamFactory())
            assert len(calls) <= 3 * n_im + 2


def test_full_cutoff_skips_kernel():
    fx = banana()

    def exploding_kernel(text, p, q):
        raise AssertionError("kernel must not run when nothing is missing")

    k = run_hybrid(fx.bwt, fx.sisa(3), cutoff_rounds=fx.n,
                   kernel=exploding_kernel)
    assert k.bit_string() == "01000011110101"


def test_irreducible_sum_sanity(rng):
    # total irreducible LCP mass stays within the 2n log2 n envelope
    import math
    for _ in range(10):
        n = rng.randrange(4, 120)
        fx = make_fixture(random_text(rng, n, 4), 4)
        irr = [fx.lcp[r] for r in range(n)
               if r == 0 or fx.bwt.to_list()[r - 1] != fx.bwt.to_list()[r]]
        assert sum(irr) <= 2 * n * math.log2(n)
