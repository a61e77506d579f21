"""Turning the rank-ordered difference vector PD into the final K.

PD carries one count per suffix-array rank; K needs the same counts in
text order.  With only a sampled inverse suffix array available, one
cursor per sample walks backwards through the text via the LF mapping
and takes the value at its rank on every step, until it has covered its
window: the positions from its sample down to, but not including, the
next sample below.  An LF pass moves every cursor one step, strictly
sequentially: it visits the cursors in rank order alongside the BWT, a
column of values cut like the BWT (PD's counts, or the BWT itself) and
the BWT's occurrence directory (sampled symbol counts, as in Ferragina
and Manzini's FM-index), so a cursor's LF value costs one lookup and
one count within a block.  Moved cursors are grouped by BWT symbol; the
groups, read in symbol order, hold the next pass's cursors in rank order.

A cursor is one integer, its rank times a radix plus a payload (the
walk's sample, or the rank a position search started from), so rank
order is integer order; a pass's cursors sit in typed arrays or, above
one buffer, in one bucket stream per symbol, handed on as they are.  A
cursor carries no values: a pass puts its values in sample order, and
text order is a zip of the passes.  A walk whose n values and
ceil(n / rate) cursors fit one buffer writes no stream at all.

Taking PD counts gives K (``position_counts``); taking BWT symbols, the
text symbol one position back, reconstructs the text (``reconstruct_text``);
the hybrid takes both at once, count times sigma plus symbol, and the
text positions of the ranks it asks for.  Retiring each cursor at the
first sampled rank it meets finds the circular anchor
(``annotate_positions``).
"""

from array import array
from collections import defaultdict
from functools import partial
from heapq import merge
from itertools import chain, groupby, islice, repeat
from math import ceil
from operator import add, floordiv, mod, mul

from . import emlayer
from .emlayer import PART, typecode
from .errors import FormatError, LengthMismatch, OutOfRange, RateMismatch
from .rounds import unary_code
from .succinct import PlcpBits, RsBitVector


def _block(sigma):
    return max(64, 4 * sigma)


def _lf_directory(bwt, factory):
    """The BWT's sampled occurrence counts, one chunk of rows per BWT
    chunk.

    For every block of ``_block(sigma)`` positions, a row holds the sigma
    counts of the chunk's symbols before the block, stored as narrow as
    the chunk capacity allows: about a byte per symbol at most.  One
    chunk's rows at a time are in memory, metered as ``lf_counters``.
    """
    sigma = bwt.sigma
    syms = range(sigma)
    view = bwt.stream(factory)
    width = typecode(view.capacity - 1)
    block = _block(sigma)
    out = factory.stream("directory", ceil(view.capacity / block) * sigma)
    for chunk in view.chunks():
        rows = array(width)
        row = [0] * sigma
        for lo in range(0, len(chunk), block):
            rows.extend(row)
            row = list(map(add, row, map(chunk.count, syms, repeat(lo),
                                         repeat(lo + block))))
        out.append_chunk(rows)
        factory.meter.note("lf_counters", sigma + len(rows))
    return out.finish()


def _lf_pass(bwt, directory, cursors, step, factory, column, radix):
    """Move every cursor one LF step, releasing the streams it read.

    A pass's cursors are a list of finished streams, read one after the
    other in rank order.  A cursor is one integer, ``rank * radix +
    payload`` with the payload below ``radix``, so cursors in rank order
    are in ascending order.  ``step(rank, payload, x, lf)``, with ``x``
    the value at ``rank`` in ``column`` (a stream cut like the BWT) or,
    if it is None, the BWT symbol, and ``lf`` = LF(rank), returns the
    cursor's payload at rank ``lf``, or None to retire it.  LF(rank) is
    D[a] plus the a's before the chunk, carried forward by each chunk's
    last ``_lf_directory`` row and last block, plus the rank's row and
    the a's within its block.  A moved cursor, ``lf * radix + payload``,
    joins the group of its symbol; LF keeps the order of ranks that share
    one, so the groups in symbol order hold the moved cursors in rank
    order.  If the cursors fit one buffer, the groups are typed arrays
    wide enough for ``n * radix - 1``, metered as ``walk_cursors``, and
    handed on concatenated, as one ``from_items`` stream; else they are
    bucket streams of 1 / sigma of a buffer a chunk, so that their write
    buffers fit one buffer together, handed on as they are.
    """
    sigma = bwt.sigma
    block = _block(sigma)
    gather = sum(map(len, cursors)) <= factory.capacity
    width = typecode(bwt.n * radix - 1)
    buckets = defaultdict(partial(array, width) if gather else partial(
        factory.stream, "bucket", max(1, factory.capacity // sigma)))
    cols = repeat(None) if column is None else column.rewind().chunks()
    records = zip(directory.rewind().chunks(), bwt.stream(factory).chunks(),
                  cols)
    base = bwt.d_array[:sigma]
    rows, chunk = [0] * sigma, b""  # nothing before the first chunk
    start = end = 0
    for cursor in chain.from_iterable(c.rewind().items() for c in cursors):
        rank, payload = divmod(cursor, radix)
        while rank >= end:
            record = next(records, None)
            if record is None:
                raise OutOfRange("cursor rank %d is not below %d"
                                 % (rank, bwt.n))
            base = list(map(add, base, rows[-sigma:]))  # the chunk passed
            for a in chunk[(len(chunk) - 1) // block * block :]:
                base[a] += 1
            rows, chunk, col = record
            start, end = end, end + len(chunk)
            col = chunk if col is None else col
        off = rank - start
        sym = chunk[off]
        blk = off // block
        lf = (base[sym] + rows[blk * sigma + sym]
              + chunk.count(sym, blk * block, off))
        payload = step(rank, payload, col[off], lf)
        if payload is not None:
            buckets[sym].append(lf * radix + payload)
    factory.release(*cursors)
    if not gather:
        return [buckets.pop(sym).finish() for sym in sorted(buckets)]
    moved = array(width)
    for sym in sorted(buckets):
        moved.extend(buckets.pop(sym))
    factory.meter.note("walk_cursors", len(moved))
    return [factory.from_items(moved, "cursors")]


def _walk(bwt, sisa, column, factory, find=()):
    """The values of ``column`` (see ``_lf_pass``) from text position 0 to
    n - 1, as an iterator; the sorted distinct ranks ``find`` and the
    three below, a typed array of keys; and their text positions, one
    typed array aligned with the keys.  The iterator frees the passes'
    streams once it is read to the end or, after its first value, closed.

    One cursor starts at each sample, its payload the sample (radix m);
    on pass p it takes the value of position sample * rate - p (mod n)
    and moves one position back, until it has its window: ``rate``
    positions, or, for sample 0, position 0 and those after the last
    sample; so within min(rate, n) passes.  Its last LF step must reach
    the rank of the next sample below; the ranks of samples 0 and m - 1
    and rank 0, always found, must be met once; a linear BWT must hold
    one 0, at rank 0 and position n - 1.  Otherwise: FormatError.

    A pass puts its values in sample order, in m slots, sample s's in
    slot (s - 1) mod m: in a typed array of m zeros, as wide as the
    column's widest chunk, if its cursors fit one buffer; else tagged with
    their slots within blocks of ``cap`` slots, ``value << b | slot %
    cap`` (b the bits of cap - 1), in the ``block`` stream of ``slot //
    cap``, each block read back after the pass into such an array of at
    most ``cap`` zeros (metered as ``pass_values``).  The
    ceil(m / cap) block streams take 1 / ceil(m / cap) of a buffer a
    chunk, so their write buffers fit one buffer while m <= cap**2, about
    4 * 10**9 cursors at the default capacity.  A pass's array is held
    narrowed to its values if n values and m cursors fit one buffer, else
    its arrays go to a stream of 1 / passes of a buffer a chunk, each
    chunk narrowed as it is cut (``EmStream.extend``).
    Passes rate - 1, ..., 0 of sample s >= 1 are positions (s - 1) * rate
    + 1, ..., s * rate: text order is a zip of the passes, last first.
    """
    n, rate = bwt.n, sisa.rate
    if sisa.n != n or len(sisa.ranks) != ceil(n / rate):
        raise RateMismatch("sample count %d does not match length %d at "
                           "rate %d" % (len(sisa.ranks), n, rate))
    if not bwt.circular and bwt.d_array[1] != 1:
        raise FormatError("a linear BWT needs one 0, not %d" % bwt.d_array[1])
    ranks, cap, passes = sisa.ranks, factory.capacity, min(rate, n)
    m = len(ranks)
    tail = n - (m - 1) * rate  # window of the sample at 0
    spill = m > cap  # a pass's values go to block streams
    whole = n + m <= cap  # every pass's values stay in memory
    chunk = max(1, cap // passes)  # of a pass's stream
    low = (cap - 1).bit_length()  # a spilled value's slot bits
    zero = array("B" if column is None else column.widest(), [0])
    firsts = range(0, m, cap)  # each block's first slot
    top = max([n, *find[-1:]]) + 1  # a last key, past every rank
    keys = array(typecode(top), (k for k, _ in groupby(
        merge(find, sorted({ranks[0], ranks[-1], 0, top})))))
    found = array(typecode(n), [n]) * (len(keys) - 1)  # n: not found yet
    first, kept = None, []  # kept: each pass's values, arrays if whole

    def step(rank, sample, value, lf):
        nonlocal first, at, key
        if rank >= key:  # a pass's cursors, in rank order, merge with keys
            while key < rank:
                at += 1
                key = keys[at]
            if key == rank and found[at] < n:
                raise FormatError("the BWT's LF mapping is not one cycle: "
                                  "the walk visits rank %d twice" % rank)
            if key == rank:
                found[at] = position = (sample * rate - p) % n
                first = first if position else value
        if spill:
            block, slot = divmod((sample or m) - 1, cap)
            values[block].append(value << low | slot)
        else:
            values[sample - 1] = value
        if p < (rate if sample else tail) - 1:
            return sample
        if lf != ranks[sample - 1]:
            raise FormatError("ISA samples do not match the BWT: the walk "
                              "from sample %d ends at rank %d, not %d"
                              % (sample, lf, ranks[sample - 1]))
        return None

    def placed(blocks):
        """The values of each block stream in turn, placed by slot."""
        mask = (1 << low) - 1
        for lo, block in zip(firsts, blocks):
            row = zero * min(cap, m - lo)
            for item in block.finish().items():
                row[item & mask] = item >> low
            factory.release(block)
            factory.meter.note("pass_values", len(row))
            yield row

    cursors = [factory.from_items(sisa.cursors, "cursors")]
    directory = _lf_directory(bwt, factory)
    for p in range(passes):
        at, key, values = 0, keys[0], None  # the last pass's array goes first
        values = ([factory.stream("block", max(1, cap // len(firsts)))
                   for _ in firsts] if spill else zero * m)
        cursors = _lf_pass(bwt, directory, cursors, step, factory, column, m)
        if whole:
            kept.append(array(typecode(max(values)), values))
            continue
        kept.append(factory.stream("values", chunk))
        for row in placed(values) if spill else [values]:
            kept[-1].extend(row)
        kept[-1].finish()
    factory.release(*cursors, directory)
    if n in found:
        raise FormatError("the walk misses rank %d" % keys[found.index(n)])
    if not bwt.circular and found[0] != n - 1:
        raise FormatError("rank 0 is at position %d, not n - 1" % found[0])
    if not spill:
        factory.meter.note("pass_values", n if whole else m)

    def in_position_order():
        rows = zip(*[p if whole else p.items() for p in reversed(kept)])
        try:
            yield first
            yield from chain.from_iterable(islice(rows, m - 1))
            yield from next(rows)[passes - tail : passes - 1]
        finally:
            if not whole:
                factory.release(*kept)
    return in_position_order(), keys[:-1], found


def position_counts(pd, bwt, sisa, factory=None, find=()):
    """PD counts permuted from rank order to text-position order.

    The walk's column is a stream cut like the BWT: PD's counts, held in
    memory if they fit one buffer (``PdBits.column``), or with ranks to
    ``find`` a new stream; PD's planes are released once it is built, so
    a PD is walked once.  Returns the walk's iterator of n counts, count i
    belonging to text position i, to be read once (see ``_walk``).  With
    ranks to ``find``, a value is ``count * sigma + symbol``, so the walk
    also gives the text: returns a finished stream of the counts, ``PART``
    a chunk, the text as bytes, and ``_walk``'s keys and their positions.
    """
    factory = factory or emlayer.StreamFactory()
    if pd.n != bwt.n:
        raise LengthMismatch("PD has %d ranks, the BWT %d" % (pd.n, bwt.n))
    view = bwt.stream(factory)
    factory.meter.note("count_column", min(view.capacity, pd.n))
    if not find:
        column = pd.column(view.capacity, factory)
    else:
        sigma = bwt.sigma
        column = factory.stream("column", view.capacity)
        column.extend(map(add, map(mul, pd.iter_counts(), repeat(sigma)),
                          view.items()))
        column.finish()
    factory.release(pd._bits)
    values, keys, positions = _walk(bwt, sisa, column, factory, find)
    factory.release(column)
    if not find:
        return values
    part = min(PART, factory.capacity)
    counts, text = factory.stream("counts", part), bytearray()
    for batch in iter(lambda: array("Q", islice(values, part)), array("Q")):
        text += bytes(map(mod, batch, repeat(sigma)))
        counts.append_chunk(array(typecode(max(batch) // sigma),
                                  map(floordiv, batch, repeat(sigma))))
    text.append(text.pop(0))
    return counts.finish(), bytes(text), keys, positions


def emit_k(counts, n, shift=0):
    """Unary-code n position-order counts, an iterable read once, into
    the 2n-bit K, rotated by ``shift``.

    The bit for text position ``shift`` comes first: the first ``shift``
    counts are coded, then the rest, and the first part's code goes last,
    joined by one shift.  K is coded like PD, packed a piece at a time.
    """
    shift %= n
    counts = iter(counts)
    head, width = unary_code(islice(counts, shift))
    k, bits = unary_code(counts)
    packed = (k | head << bits).to_bytes((bits + width + 7) // 8, "little")
    del k, head  # not held while K is loaded
    return PlcpBits(RsBitVector.from_packed(packed, bits + width), n, shift)


def reconstruct_text(bwt, sisa, factory=None):
    """Recover the text symbols from the BWT with the same walk.

    The BWT symbol at the rank of position i is the text symbol at i - 1,
    so the text is the walk's output rotated by one.
    """
    factory = factory or emlayer.StreamFactory()
    text = list(_walk(bwt, sisa, None, factory)[0])
    return text[1:] + text[:1]


def annotate_positions(bwt, sisa, ranks, factory=None):
    """Text position of each rank in a sorted list, as a dict.

    Walks all cursors backwards together; each retires at the first
    sampled rank it meets, within min(rate, n) LF passes.  A cursor's
    payload is the rank it started from (radix n), and its steps are the
    pass number.
    """
    factory = factory or emlayer.StreamFactory()
    n = bwt.n
    samples = dict(sisa.pairs())
    factory.meter.note("isa_samples", len(samples))
    out = {}

    def step(rank, orig, sym, lf):
        if rank not in samples:
            return orig
        out[orig] = (samples[rank] + p) % n
        return None

    cursors = [factory.from_items(
        array(typecode(n * n - 1), (r * n + r for r in ranks)), "cursors")]
    directory = _lf_directory(bwt, factory)
    for p in range(min(sisa.rate, n)):
        if not any(map(len, cursors)):
            break
        cursors = _lf_pass(bwt, directory, cursors, step, factory, None, n)
    factory.release(directory)
    if any(map(len, cursors)):
        raise FormatError("ISA samples do not match the BWT: a cursor "
                          "meets no sample")
    factory.release(*cursors)
    return out
