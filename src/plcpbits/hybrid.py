"""Hybrid builder: truncated rounds plus a sparse LCP kernel.

The round machinery is cheap while many ranks receive values per round
and wasteful afterwards.  The hybrid strategy stops it after a cutoff, or
once ``stop_rule`` prices the kernel below the rounds still to come, and
computes the missing counts directly: only missing *irreducible* ranks
(rank 0 or a BWT symbol change) need work, every other missing rank
provably contributes zero bits.  One LF walk from the ISA samples
reconstructs the text and finds the positions whose suffixes a pluggable
kernel compares for their counts.  That kernel is semi-external: it holds
the whole text in memory, n symbols, noted with the meter under
``hybrid_text``.  One rewrite of PD then keeps the counts of set ranks
and gives every unset rank its kernel count or zero, which also drops
the partial counts of ranks whose rounds were cut short.
"""

from operator import mul

from . import emlayer
from .emlayer import iter_items
from .errors import CountConflict
from .reorder import reconstruct_text, reorder_pd
from .rounds import run_rounds_external
from .textcore import Text, naive_lcp_pair


def sparse_lcp_kernel_direct(text, p, q):
    """Symbol-by-symbol comparison of the suffixes at p and q."""
    return naive_lcp_pair(text, p, q)


KERNELS = {"direct": sparse_lcp_kernel_direct}


def irreducible_missing(bwt, set_marks):
    """Ranks without a value whose count cannot be deduced as zero.

    Those are the unset ranks where the BWT changes symbol (or rank 0).
    Returns them in rank order as pairs ``(r, q)``, q being the last rank
    before r with r's BWT symbol, or None.
    """
    out = []
    last = [None] * bwt.sigma
    sit = iter_items(set_marks)
    for rank, sym in enumerate(bwt.stream().items()):
        if not next(sit) and last[sym] != rank - 1:
            out.append((rank, last[sym]))
        last[sym] = rank
    return out


def _sparse_counts(bwt, sisa, missing, kernel_fn, factory):
    """PD counts of the missing irreducible ``(r, q)`` pairs, by rank.

    The count at r is LCP[r] - LCP[LF(r)] + 1.  LF keeps the order of
    ranks of one symbol and moves each a text position back, so with
    LF(q) = LF(r) - 1, LCP[LF(r)] compares the suffixes one position
    before r's and q's; without a q it starts a bucket and is 0.
    """
    n = bwt.n
    find = {x for r, q in missing for x in (r - 1, r, q)} - {None, -1}
    factory.meter.note("hybrid_sparse", len(find))
    factory.meter.note("hybrid_text", n)
    symbols, pos = reconstruct_text(bwt, sisa, factory, find=find)
    text = Text(symbols, bwt.sigma, circular=bwt.circular)

    counts = {}
    for r, q in missing:
        lcp = kernel_fn(text, pos[r], pos[r - 1]) if r else 0
        if q is not None:
            lcp -= kernel_fn(text, (pos[r] - 1) % n, (pos[q] - 1) % n)
        counts[r] = lcp + 1
        if counts[r] < 0:
            raise CountConflict("negative count %d at rank %d" % (counts[r], r))
    return counts


def stop_rule(n, price):
    """Stop after a round, the second or later, that sets fewer ranks
    than the one before and under 1/``price`` of the ranks still unset.

    At that rate the rounds, one O(n) pass each, need more than ``price``
    = min(rate, n) passes, the length of the kernel's walks; its
    comparisons are bounded by the irreducible LCP sum."""
    def stop(stats):
        last = stats[-1].newly_set
        unset = n - sum(s.newly_set for s in stats)
        return (len(stats) > 1 and last < stats[-2].newly_set
                and unset > price * last)
    return stop


def hybrid_pd(bwt, sisa, cutoff_rounds, kernel="direct", factory=None,
              adaptive=False):
    """Complete rank-order PD from truncated rounds plus kernel; with
    ``adaptive``, ``stop_rule`` may end the rounds before the cutoff."""
    factory = factory or emlayer.StreamFactory()
    kernel_fn = KERNELS[kernel] if isinstance(kernel, str) else kernel
    stop = stop_rule(bwt.n, min(sisa.rate, bwt.n)) if adaptive else None

    result = run_rounds_external(bwt, factory, cutoff_rounds, stop)
    missing = irreducible_missing(bwt, result.set_marks)
    counts = (_sparse_counts(bwt, sisa, missing, kernel_fn, factory)
              if missing else {})

    todo = sorted(counts.items(), reverse=True)

    def completed(rank, piece, runs):
        # a set rank keeps its run; an unset rank holds 0 or the partial
        # counts of rounds cut short, and gets its kernel count or none
        runs = list(map(mul, runs, piece))
        while todo and todo[-1][0] < rank + len(piece):
            r, c = todo.pop()
            runs[r - rank] = bytes(c)
        return runs

    pd = result.pd.rewrite(result.set_marks.rewind().chunks(), completed,
                           factory)
    factory.release(result.pd._bits, result.set_marks)
    return pd


def run_hybrid(bwt, sisa, cutoff_rounds, kernel="direct", factory=None):
    """Hybrid end-to-end: truncated rounds, sparse kernel, reorder to K."""
    factory = factory or emlayer.StreamFactory()
    pd = hybrid_pd(bwt, sisa, cutoff_rounds, kernel=kernel, factory=factory)
    k = reorder_pd(pd, bwt, sisa, factory=factory)
    factory.release(pd._bits)
    return k
