"""Hybrid builder: truncated rounds plus a sparse LCP kernel.

The round machinery is cheap while many ranks receive values per round
and wasteful afterwards.  The hybrid strategy stops it after a cutoff, or
once ``stop_rule`` prices the kernel below the rounds still to come, and
computes the missing counts directly.  The external strategy is the same
build with rounds that run until every rank is set: nothing is missing,
and the kernel never runs.  Only missing *irreducible* ranks (rank 0 or
a BWT symbol change) need work: at a reducible rank r, BWT[r] =
BWT[r - 1], so LF(r - 1) = LF(r) - 1 and LCP[LF(r)] = LCP[r] + 1; r is
set a round before LF(r), is never active, and its count is 0, so PD
needs no cleaning.  The one LF walk that puts PD's counts in text order
carries each rank's BWT symbol too, so it also gives the text and the
positions whose suffixes the kernel, ``KERNELS["direct"]``, compares;
its counts replace the missing ranks' partial counts as ``emit_k`` reads
them.  The kernel holds the whole text, a byte a symbol (``hybrid_text``
on the meter); its other state is typed arrays of a few entries a
missing rank.
"""

from array import array
from bisect import bisect_left
from itertools import compress, count, islice, repeat

from . import emlayer
from .errors import CountConflict
from .reorder import position_counts
from .rounds import run_rounds_external
from .textcore import Text, naive_lcp_pair

# looked up on every build, so a caller may swap the entry
KERNELS = {"direct": naive_lcp_pair}


# maps every byte but 0 to 1
NONZERO = bytes(c > 0 for c in range(256))


def irreducible_missing(bwt, set_marks):
    """Ranks without a value whose count cannot be deduced as zero: the
    unset ranks where the BWT changes symbol (or rank 0), in rank order,
    one typed array of ``r * (n + 1) + q + 1``, q the last rank before r
    with r's BWT symbol, or -1.  ``set_marks`` is a bit stream cut like
    the BWT's chunks, read a chunk at a time as 0/1 bytes.

    Per chunk, on big integers with one byte per rank, the chunk XOR
    itself shifted by one rank is non-zero at the run heads.  Only the
    heads are visited, one per BWT run: a head is missing when its set
    mark is clear; it ends the run before it, across chunks too.
    """
    radix = bwt.n + 1
    out = array(emlayer.typecode(radix * radix - 1))
    last = [-1] * 256  # per byte, the last rank of its latest run
    base = 0
    marks = set_marks.rewind().chunks()
    for chunk, mark in zip(bwt.stream().chunks(), marks):
        size = len(chunk)
        if not base:
            prev = chunk[0] ^ 1  # rank 0 is a run head
        x = int.from_bytes(chunk, "little")
        head = (x ^ (x << 8 | prev)).to_bytes(size + 1, "little")[:size]
        head = head.translate(NONZERO)
        for r, a, m in zip(compress(count(base), head), compress(chunk, head),
                           compress(mark, head)):
            last[prev] = r - 1
            if not m:
                out.append(r * radix + last[a] + 1)
            prev = a
        base += size
    return out


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


def hybrid_pd(bwt, sisa, cutoff_rounds, factory=None, adaptive=False):
    """Position-order counts from truncated rounds plus kernel, as an
    iterator of n counts to be read once, which frees its streams when
    read to the end or, after its first value, closed; with
    ``adaptive``, ``stop_rule`` may end the rounds before the cutoff.

    The count at a missing irreducible rank r is LCP[r] - LCP[LF(r)] + 1.
    LF keeps the order of ranks of one symbol and moves each a text
    position back, so with LF(q) = LF(r) - 1, LCP[LF(r)] compares the
    suffixes one position before r's and q's; without a q it starts a
    bucket and is 0.
    """
    factory = factory or emlayer.StreamFactory()
    kernel_fn = KERNELS["direct"]
    n = bwt.n
    radix = n + 1
    stop = stop_rule(n, min(sisa.rate, n)) if adaptive else None
    result = run_rounds_external(bwt, factory, cutoff_rounds, stop)
    # rounds that set every rank leave nothing missing, so nothing to scan
    unset = n - sum(s.newly_set for s in result.stats)
    missing = irreducible_missing(bwt, result.set_marks) if unset else ()
    factory.release(result.set_marks)
    find = bytearray(n if missing else 0)  # r - 1, r and q of missing r
    for r, q1 in map(divmod, missing, repeat(radix)):
        find[max(r - 1, 0)] = find[r] = find[q1 - 1 if q1 else r] = 1
    find = array(emlayer.typecode(n), compress(range(n), find))
    walked = position_counts(result.pd, bwt, sisa, factory, find)
    if not find:
        return walked
    factory.meter.note("hybrid_sparse", len(find))
    factory.meter.note("hybrid_text", n)
    counts, symbols, keys, positions = walked
    text = Text(symbols, bwt.sigma, circular=bwt.circular)
    del walked, symbols, find
    patch = array("Q")  # a count packed as position * (n + 2) + count
    for r, q1 in map(divmod, missing, repeat(radix)):
        i = bisect_left(keys, r)  # r - 1, a key too, is key i - 1
        at = positions[i]
        lcp = kernel_fn(text, at, positions[i - 1]) if r else 0
        if q1:
            q = positions[bisect_left(keys, q1 - 1)]
            lcp -= kernel_fn(text, (at - 1) % n, (q - 1) % n)
        if lcp < -1:
            raise CountConflict("negative count %d at rank %d" % (lcp + 1, r))
        patch.append(at * (n + 2) + lcp + 1)
    del text, keys, positions, missing  # not needed by emit_k
    patch = emlayer.sorted_array(patch, "Q")  # by position

    def patched():
        items, done = counts.items(), 0
        try:
            for at, value in map(divmod, patch, repeat(n + 2)):
                yield from islice(items, at - done)
                next(items)
                yield value
                done = at + 1
            yield from items
        finally:
            factory.release(counts)
    return patched()
