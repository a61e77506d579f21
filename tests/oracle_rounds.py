"""The round oracle: the rounds over a wavelet tree, entirely in memory.

This is the round structure of Beller, Gog, Ohlebusch and Schnattinger
(2013) as written: a pruned queue of rank intervals, each extended one
symbol at a time by the tree's interval symbols and select.  The
product's rounds (``plcpbits.rounds.run_rounds_external``) compute the
same PD, round for round, on sequential bit streams; the tests compare
the two.
"""

from plcpbits.emlayer import StreamFactory, pack
from plcpbits.reorder import emit_k, position_counts
from plcpbits.rounds import PdBits, RoundResult
from plcpbits.succinct import WaveletTree


def to_planes(counts):
    """Counts as their bit planes: plane j is a packed word whose bit i is
    bit j of count i, as many planes as the largest count has bits."""
    return [pack(bytes([c >> j & 1 for c in counts]))
            for j in range(max(counts, default=0).bit_length())]


def pd_from_counts(counts, factory=None):
    """Per-rank zero counts as PD, cut at the factory's capacity."""
    factory = factory or StreamFactory()
    counts, cap = list(counts), factory.capacity
    chunks = range(0, len(counts), cap)
    return PdBits(None, len(counts), cap).written(
        factory, (to_planes(counts[lo : lo + cap]) for lo in chunks))


def reorder_pd(pd, bwt, sisa, factory=None, shift=0):
    """K of a rank-order PD, by the product's walk and ``emit_k``; the walk
    releases PD's planes, so each walk takes a PD of its own."""
    return emit_k(position_counts(pd, bwt, sisa, factory), bwt.n, shift=shift)


def run_rounds_internal(bwt, max_rounds=None, factory=None):
    """Wavelet-tree round builder, entirely in memory.

    Extends a pruned queue of rank intervals one symbol at a time; the
    lower bound of each fresh extension receives its value in the current
    round and activates its LF source.  The set marks come back as a bit
    stream cut like the BWT's chunks, as the product's rounds give them.
    """
    factory = factory or StreamFactory()
    n = bwt.n
    wt = WaveletTree(bwt.to_list(), bwt.sigma)
    d = bwt.d_array
    s_set = bytearray(n)
    active = set()
    pd_counts = [0] * n
    queue = [(0, n)]
    set_count = 0
    rounds = 0
    while set_count < n and queue and rounds <= n:
        if max_rounds is not None and rounds >= max_rounds:
            break
        next_queue = []
        newly_set = []
        for lo, hi in queue:
            for sym, rank_at_lo, width in wt.interval_symbols(lo, hi):
                l2 = d[sym] + rank_at_lo
                if not s_set[l2]:
                    # LF source of l2: first sym occurrence in [lo, hi)
                    l2src = wt.select(sym, rank_at_lo)
                    newly_set.append(l2)
                    if not s_set[l2src]:
                        active.add(l2src)
                    next_queue.append((l2, l2 + width))
        for r in active:
            pd_counts[r] += 1
        for r in newly_set:
            active.discard(r)
            if not s_set[r]:
                s_set[r] = 1
                set_count += 1
        queue = next_queue
        rounds += 1
    marks = factory.bits("starts", bwt.stream(factory).capacity)
    marks.append_chunk(bytes(s_set))
    return RoundResult(pd_from_counts(pd_counts, factory), marks.finish(),
                       rounds)
