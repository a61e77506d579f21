"""Hybrid builder: truncated rounds plus a sparse LCP kernel.

The round machinery is cheap while many ranks receive values per round
and wasteful afterwards.  The hybrid strategy stops it after a cutoff, or
once ``stop_rule`` prices the kernel below the rounds still to come, and
computes the missing counts directly.  The external strategy is the same
build with rounds that run until every rank is set: nothing is missing,
and the kernel never runs.  Only missing *irreducible* ranks (rank 0 or
a BWT symbol change) need work; every other missing rank provably
contributes zero bits.  PD needs no cleaning: at a reducible rank r,
BWT[r] = BWT[r - 1], so LF(r - 1) = LF(r) - 1 and LCP[LF(r)] =
LCP[r] + 1; r is set a round before LF(r), is never active, and its
count is 0.  The one LF walk that puts PD's counts in text order carries
each rank's BWT symbol too, so it also gives the text and the positions
whose suffixes the kernel, ``KERNELS["direct"]``, compares; its counts
then replace the missing ranks' partial counts, left by the rounds cut
short, as ``emit_k`` reads them.  The kernel is semi-external: it holds
the whole text, n symbols as n bytes, noted with the meter under
``hybrid_text``.
"""

from itertools import compress, count

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
    """Ranks without a value whose count cannot be deduced as zero.

    Those are the unset ranks where the BWT changes symbol (or rank 0).
    Returns them in rank order as pairs ``(r, q)``, q being the last rank
    before r with r's BWT symbol, or None.  ``set_marks`` is a bit stream
    cut like the BWT's chunks, read a chunk at a time as 0/1 bytes.

    Per chunk, on big integers with one byte per rank, the chunk XOR
    itself shifted by one rank is non-zero at the run heads.  Only the
    heads are visited, one per BWT run: a head is missing when its set
    mark is clear, and its q is the last rank of the latest run of its
    symbol, which each run records per symbol, across chunks too.
    """
    out = []
    last = [None] * bwt.sigma
    base = 0
    marks = set_marks.rewind().chunks()
    for chunk, mark in zip(bwt.stream().chunks(), marks):
        size = len(chunk)
        if not base:
            prev = chunk[0] ^ 1  # rank 0 is a run head
        x = int.from_bytes(chunk, "little")
        head = (x ^ (x << 8 | prev)).to_bytes(size + 1, "little")[:size]
        head = head.translate(NONZERO)
        gaps = head.split(b"\x01")
        r = base + len(gaps.pop(0))
        if r > base:  # the chunk starts inside the run of prev
            last[prev] = r - 1
        for gap, a, m in zip(map(len, gaps), compress(chunk, head),
                             compress(mark, head)):
            if not m:
                out.append((r, last[a]))
            r += gap + 1
            last[a] = r - 1
        base += size
        prev = chunk[-1]
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
    stop = stop_rule(n, min(sisa.rate, n)) if adaptive else None
    result = run_rounds_external(bwt, factory, cutoff_rounds, stop)
    # rounds that set every rank leave nothing missing, so nothing to scan
    unset = n - sum(s.newly_set for s in result.stats)
    missing = irreducible_missing(bwt, result.set_marks) if unset else []
    factory.release(result.set_marks)
    find = {x for r, q in missing for x in (r - 1, r, q)} - {None, -1}
    walked = position_counts(result.pd, bwt, sisa, factory, find)
    factory.release(result.pd._bits)
    if not find:
        return walked
    factory.meter.note("hybrid_sparse", len(find))
    factory.meter.note("hybrid_text", n)
    counts, symbols, pos = walked
    text = Text(symbols, bwt.sigma, circular=bwt.circular)
    del walked, symbols
    patch = {}
    for r, q in missing:
        lcp = kernel_fn(text, pos[r], pos[r - 1]) if r else 0
        if q is not None:
            lcp -= kernel_fn(text, (pos[r] - 1) % n, (pos[q] - 1) % n)
        if lcp < -1:
            raise CountConflict("negative count %d at rank %d" % (lcp + 1, r))
        patch[pos[r]] = lcp + 1
    del text, pos  # the kernel's state, not needed by emit_k

    def patched():
        try:
            yield from map(patch.get, count(), counts.items())
        finally:
            factory.release(counts)
    return patched()
