"""Hybrid builder: truncated rounds plus a sparse LCP kernel.

The round machinery is cheap while many ranks receive values per round
and wasteful afterwards.  The hybrid strategy stops it after a cutoff,
erases the partial counts of ranks still in flight, and computes the
missing counts directly: only missing *irreducible* ranks (rank 0 or a
BWT symbol change) need work, every other missing rank provably
contributes zero bits.  Positions for the sparse set are recovered by a
batched LF walk against the ISA samples, longest common prefixes by a
pluggable kernel over the reconstructed text.
"""

from . import emlayer
from .emlayer import iter_items
from .errors import CountConflict, ReducibleRankNeedsZeros
from .reorder import (_lf_pass, annotate_positions, reconstruct_text,
                      reorder_pd)
from .rounds import PdBits, run_rounds_external
from .textcore import Text, naive_lcp_pair


def sparse_lcp_kernel_direct(text, p, q):
    """Symbol-by-symbol comparison of the suffixes at p and q."""
    return naive_lcp_pair(text, p, q)


KERNELS = {"direct": sparse_lcp_kernel_direct}


def irreducible_missing(bwt, set_marks, factory=None):
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


def fill_reducible(bwt, set_marks, handled):
    """Check that every missing rank outside ``handled`` is reducible.

    Reducible ranks repeat the previous BWT symbol and need zero bits,
    so there is nothing to write; a non-reducible leftover means the
    sparse set was computed wrongly.
    """
    handled = set(handled)
    prev_sym = None
    rank = 0
    sit = iter_items(set_marks)
    for sym in bwt.stream().items():
        if not next(sit) and rank not in handled:
            if rank == 0 or sym != prev_sym:
                raise ReducibleRankNeedsZeros(
                    "rank %d is irreducible but was not handled" % rank
                )
        prev_sym = sym
        rank += 1


def _erase_active(pd, active, factory):
    """Drop the partial zero bits of ranks whose rounds were cut short."""
    return PdBits.from_counts(
        (0 if m else c for c, m in zip(pd.iter_counts(), iter_items(active))),
        factory)


def _merge_counts(pd, counts_by_rank, factory):
    """Write the kernel counts into PD at their (currently empty) ranks."""
    def merged():
        for rank, c in enumerate(pd.iter_counts()):
            if rank in counts_by_rank:
                if c:
                    raise CountConflict(
                        "merging into rank %d, which already has bits" % rank
                    )
                c = counts_by_rank[rank]
            yield c
    return PdBits.from_counts(merged(), factory)


def hybrid_pd(bwt, sisa, cutoff_rounds, kernel="direct", factory=None,
              circular=False):
    """Complete rank-order count vector from truncated rounds plus kernel."""
    factory = factory or emlayer.StreamFactory()
    kernel_fn = KERNELS[kernel] if isinstance(kernel, str) else kernel
    n = bwt.n

    result = run_rounds_external(bwt, factory, max_rounds=cutoff_rounds)
    pd = _erase_active(result.pd, result.active_marks, factory)
    factory.release(result.pd._bits)

    missing = irreducible_missing(bwt, result.set_marks, factory)
    fill_reducible(bwt, result.set_marks, missing)
    if not missing:
        return pd, result

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
    text = Text(symbols, bwt.sigma, circular=circular)

    lcp = {}
    for r in need_lcp:
        if r == 0:
            lcp[r] = 0
        else:
            lcp[r] = kernel_fn(text, positions[r], positions[r - 1])

    # counts come from neighbouring text positions of the computed values
    by_pos = sorted((positions[r], r) for r in need_lcp)
    pos_to_lcp = {p: lcp[r] for p, r in by_pos}
    counts = {}
    missing_set = set(missing)
    for p, r in by_pos:
        if r not in missing_set:
            continue
        prev = (p - 1) % n
        counts[r] = lcp[r] - pos_to_lcp[prev] + 1
        if counts[r] < 0:
            raise CountConflict("negative count %d at rank %d" % (counts[r], r))
    pd = _merge_counts(pd, counts, factory)
    return pd, result


def run_hybrid(bwt, sisa, cutoff_rounds, kernel="direct", factory=None,
               circular=False, shift=0):
    """Hybrid end-to-end: truncated rounds, sparse kernel, reorder to K."""
    factory = factory or emlayer.StreamFactory()
    pd, _ = hybrid_pd(bwt, sisa, cutoff_rounds, kernel=kernel,
                      factory=factory, circular=circular)
    return reorder_pd(pd, bwt, sisa, factory=factory, shift=shift)
