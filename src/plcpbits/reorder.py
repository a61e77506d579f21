"""Turning the rank-ordered difference vector PD into the final K.

PD carries one unary count per suffix-array rank; K needs the same
counts in text order.  With only a sampled inverse suffix array
available, batches of cursors are walked backwards through the text via
the LF mapping, each cursor collecting the counts of the position window
between two consecutive samples.  Every pass is strictly sequential; the
per-round LF pass keeps one counter per alphabet symbol in memory and
nothing else.

The same walk, recording BWT symbols instead of counts, reconstructs the
text; that path is what the verification command uses.  Counting steps
up to the first sampled rank instead, it finds the text positions of
chosen ranks: the hybrid's sparse set and the circular anchor.
"""

from math import ceil

from . import emlayer
from .emlayer import em_lsd_sort, em_stable_sort_by_symbol
from .errors import OutOfRange, RateMismatch, WalkIncomplete
from .succinct import PlcpBits


def _check_rate(bwt, sisa):
    n = bwt.n
    if sisa.n != n or len(sisa.ranks) != ceil(n / sisa.rate):
        raise RateMismatch(
            "sample count %d does not match length %d at rate %d"
            % (len(sisa.ranks), n, sisa.rate)
        )


def _seed_cursors(sisa, factory):
    """Cursors (rank, (pos, active, values)) at the samples, sorted by rank."""
    n = sisa.n
    seeds = factory.from_items(
        ((rank, (pos, True, ())) for rank, pos in sisa.pairs()), "cursors")
    key_bits = max(1, (n - 1).bit_length())
    out = em_lsd_sort(seeds, 0, key_bits, factory)
    factory.release(seeds)
    return out


def _lf_pass(bwt, cursors, step, factory):
    """Advance every (rank, payload) cursor one LF step.

    A cursor at rank r moves to rank LF(r) with payload
    ``step(payload, BWT[r])``.  Cursors arrive and leave in rank order:
    LF keeps the order of ranks that share a symbol, so a stable symbol
    sort of the moved cursors restores it.  The BWT is read up to the last
    cursor; the symbol counter table is the only in-memory state, noted
    with the meter under ``lf_counters``.
    """
    counters = list(bwt.d_array[: bwt.sigma])
    factory.meter.note("lf_counters", bwt.sigma)
    tagged = factory.stream("tagged")
    it = cursors.rewind().items()
    head = next(it, None)
    start = 0
    for chunk in bwt.stream(factory).chunks():
        end = start + len(chunk)
        done = 0
        while head is not None and head[0] < end:
            off = head[0] - start
            for sym in chunk[done:off]:
                counters[sym] += 1
            done = off
            sym = chunk[off]
            tagged.append((sym, (counters[sym], step(head[1], sym))))
            head = next(it, None)
        if head is None:
            break
        for sym in chunk[done:]:
            counters[sym] += 1
        start = end
    if head is not None:
        raise OutOfRange("cursor rank %d is not below %d" % (head[0], bwt.n))
    by_rank = em_stable_sort_by_symbol(tagged.finish(), bwt.sigma, factory)
    out = factory.stream("cursors")
    for chunk in by_rank.chunks():
        out.append_chunk([cursor for _, cursor in chunk])
    factory.release(tagged, by_rank)
    return out.finish()


def _copy_counts_pass(pd, cursors, rate, factory):
    """Prepend the PD count at each active cursor's rank to its values.

    The counts are read off PD's zero runs at the cursor ranks only.  A
    cursor retires once it has walked back to the sample position below
    its seed.
    """
    out = factory.stream("cursors")
    runs = pd.runs()
    at = 0  # rank of the next run
    for chunk in cursors.rewind().chunks():
        moved = []
        for rank, (pos, active, values) in chunk:
            if active:
                runs.skip(rank - at)
                values = (len(runs.take(1)[0]),) + values
                at = rank + 1
                active = pos % rate != 0
            moved.append((rank, (pos, active, values)))
        out.append_chunk(moved)
    return out.finish()


def position_counts(pd, bwt, sisa, factory=None):
    """PD counts permuted from rank order to text-position order.

    Returns a finished stream of n counts, count i belonging to text
    position i.
    """
    factory = factory or emlayer.StreamFactory()
    _check_rate(bwt, sisa)
    n = bwt.n
    rate = sisa.rate

    def step(payload, sym):
        pos, active, values = payload
        return (pos - 1) % n if active else pos, active, values

    cursors = _seed_cursors(sisa, factory)
    for _ in range(rate):
        stepped = _lf_pass(bwt, cursors, step, factory)
        factory.release(cursors)
        cursors = _copy_counts_pass(pd, stepped, rate, factory)
        factory.release(stepped)
    windows = factory.stream("windows")
    for chunk in cursors.rewind().chunks():
        window = []
        for _, (pos, active, values) in chunk:
            if active:
                raise WalkIncomplete("cursor still collecting after full walk")
            window.append((pos, values))
        windows.append_chunk(window)
    factory.release(cursors)
    key_bits = max(1, (n - 1).bit_length())
    by_pos = em_lsd_sort(windows.finish(), 0, key_bits, factory)
    factory.release(windows)
    counts = factory.stream("counts")
    for chunk in by_pos.chunks():
        for _, values in chunk:
            counts.append_chunk(list(values))
    factory.release(by_pos)
    return counts.finish()


def emit_k(counts, n, shift=0):
    """Unary-code a count stream into the 2n-bit K, rotated by ``shift``.

    The bit for text position ``shift`` comes first; a non-zero shift
    costs one extra rewind of the count stream.
    """
    bits = []
    shift %= n

    def emit_range(skip, take):
        it = counts.items()
        for _ in range(skip):
            next(it)
        for _ in range(take):
            c = next(it)
            bits.extend([0] * c)
            bits.append(1)

    counts.rewind()
    if shift == 0:
        emit_range(0, n)
    else:
        emit_range(shift, n - shift)
        counts.rewind()
        emit_range(0, shift)
    return PlcpBits(bits, n, shift=shift)


def reorder_pd(pd, bwt, sisa, factory=None, shift=0):
    """Full reorder: PD plus sampled ISA to the position-ordered K."""
    factory = factory or emlayer.StreamFactory()
    counts = position_counts(pd, bwt, sisa, factory)
    k = emit_k(counts, bwt.n, shift=shift)
    factory.release(counts)
    return k


def reconstruct_text(bwt, sisa, factory=None):
    """Recover the text symbols from the BWT with the same batched walk."""
    factory = factory or emlayer.StreamFactory()
    _check_rate(bwt, sisa)
    n = bwt.n
    rate = sisa.rate
    pairs = factory.stream("textpairs")

    def step(payload, sym):
        pos, active, values = payload
        if not active:
            return payload
        pos = (pos - 1) % n
        pairs.append((pos, sym))
        return pos, pos % rate != 0, values

    cursors = _seed_cursors(sisa, factory)
    for _ in range(rate):
        stepped = _lf_pass(bwt, cursors, step, factory)
        factory.release(cursors)
        cursors = stepped
    factory.release(cursors)
    key_bits = max(1, (n - 1).bit_length())
    by_pos = em_lsd_sort(pairs.finish(), 0, key_bits, factory)
    factory.release(pairs)
    out = []
    for chunk in by_pos.chunks():
        out.extend(sym for _, sym in chunk)
    factory.release(by_pos)
    return out


def _count_step(payload, sym):
    orig, steps = payload
    return orig, steps + 1


def annotate_positions(bwt, sisa, ranks, factory=None):
    """Text position of each rank in a sorted list, as a dict.

    Walks all cursors backwards together; each retires at the first
    sampled rank it meets, at most ``rate`` LF rounds in total.
    """
    factory = factory or emlayer.StreamFactory()
    n = bwt.n
    samples = sisa.pairs_by_rank()
    factory.meter.note("isa_samples", len(samples))
    out = {}
    cursors = factory.from_items(((r, (r, 0)) for r in ranks), "cursors")
    for _ in range(sisa.rate + 1):
        # retire cursors sitting on a sampled rank
        survivors = factory.stream("cursors")
        si = 0
        for chunk in cursors.rewind().chunks():
            keep = []
            for cursor in chunk:
                rank, (orig, steps) = cursor
                while si < len(samples) and samples[si][0] < rank:
                    si += 1
                if si < len(samples) and samples[si][0] == rank:
                    out[orig] = (samples[si][1] + steps) % n
                else:
                    keep.append(cursor)
            survivors.append_chunk(keep)
        factory.release(cursors)
        cursors = survivors.finish()
        if not len(cursors):
            break
        stepped = _lf_pass(bwt, cursors, _count_step, factory)
        factory.release(cursors)
        cursors = stepped
    if len(cursors):
        raise WalkIncomplete("cursor failed to reach a sample")
    factory.release(cursors)
    return out
