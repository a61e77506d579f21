"""Hybrid builder: truncated rounds plus a sparse LCP kernel.

The round machinery is cheap while many ranks receive values per round
and wasteful afterwards.  The hybrid strategy stops it after a cutoff and
computes the missing counts directly: only missing *irreducible* ranks
(rank 0 or a BWT symbol change) need work, every other missing rank
provably contributes zero bits.  Positions for the sparse set are
recovered by a batched LF walk against the ISA samples, longest common
prefixes by a pluggable kernel over the reconstructed text.  One rewrite
of PD then keeps the counts of set ranks and gives every unset rank its
kernel count or zero, which also drops the partial counts of ranks whose
rounds were cut short.
"""

from . import emlayer
from .emlayer import iter_items
from .errors import CountConflict
from .reorder import (_lf_pass, annotate_positions, reconstruct_text,
                      reorder_pd)
from .rounds import PdBits, run_rounds_external
from .textcore import Text, naive_lcp_pair


def sparse_lcp_kernel_direct(text, p, q):
    """Symbol-by-symbol comparison of the suffixes at p and q."""
    return naive_lcp_pair(text, p, q)


KERNELS = {"direct": sparse_lcp_kernel_direct}


def irreducible_missing(bwt, set_marks):
    """Ranks without a value whose count cannot be deduced as zero.

    Those are the unset ranks where the BWT changes symbol (or rank 0).
    Returns them as a sorted list.
    """
    out = []
    prev_sym = None
    rank = 0
    sit = iter_items(set_marks)
    for sym in bwt.stream().items():
        if not next(sit) and (rank == 0 or sym != prev_sym):
            out.append(rank)
        prev_sym = sym
        rank += 1
    return out


def _sparse_counts(bwt, sisa, missing, kernel_fn, factory):
    """PD counts of the missing irreducible ranks, by rank."""
    n = bwt.n
    # LCP values are needed at the missing ranks and at their LF images;
    # positions additionally at every predecessor rank.
    seeds = factory.from_items(((r, None) for r in missing), "cursors")
    images = _lf_pass(bwt, seeds, lambda payload, sym: payload, factory)
    need_lcp = sorted(set(missing) | {lf for lf, _ in images.items()})
    factory.release(seeds, images)
    need_pos = sorted(set(need_lcp) | {r - 1 for r in need_lcp if r > 0})
    factory.meter.note("hybrid_sparse", len(need_pos))

    positions = annotate_positions(bwt, sisa, need_pos, factory)
    symbols = reconstruct_text(bwt, sisa, factory)
    text = Text(symbols, bwt.sigma, circular=bwt.circular)

    lcp = {}
    for r in need_lcp:
        if r == 0:
            lcp[r] = 0
        else:
            lcp[r] = kernel_fn(text, positions[r], positions[r - 1])

    # counts come from neighbouring text positions of the computed values
    pos_to_lcp = {positions[r]: lcp[r] for r in need_lcp}
    counts = {}
    for r in missing:
        counts[r] = lcp[r] - pos_to_lcp[(positions[r] - 1) % n] + 1
        if counts[r] < 0:
            raise CountConflict("negative count %d at rank %d" % (counts[r], r))
    return counts


def hybrid_pd(bwt, sisa, cutoff_rounds, kernel="direct", factory=None):
    """Complete rank-order PD from truncated rounds plus kernel."""
    factory = factory or emlayer.StreamFactory()
    kernel_fn = KERNELS[kernel] if isinstance(kernel, str) else kernel

    result = run_rounds_external(bwt, factory, max_rounds=cutoff_rounds)
    missing = irreducible_missing(bwt, result.set_marks)
    counts = (_sparse_counts(bwt, sisa, missing, kernel_fn, factory)
              if missing else {})

    def completed():
        # unset ranks hold 0 or the partial counts of rounds cut short
        marks = iter_items(result.set_marks)
        for rank, c in enumerate(result.pd.iter_counts()):
            yield c if next(marks) else counts.get(rank, 0)

    pd = PdBits.from_counts(completed(), factory)
    factory.release(result.pd._bits, result.set_marks)
    return pd


def run_hybrid(bwt, sisa, cutoff_rounds, kernel="direct", factory=None):
    """Hybrid end-to-end: truncated rounds, sparse kernel, reorder to K."""
    factory = factory or emlayer.StreamFactory()
    pd = hybrid_pd(bwt, sisa, cutoff_rounds, kernel=kernel, factory=factory)
    k = reorder_pd(pd, bwt, sisa, factory=factory)
    factory.release(pd._bits)
    return k
