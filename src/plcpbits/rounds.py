"""The round builder of the rank-order difference bit vector PD.

Rounds of backward search set the LCP values in increasing order, as in
Beller, Gog, Ohlebusch and Schnattinger (2013), who run them over a
wavelet tree.  A rank is *active* from the round in which its LF image
receives a value until the round in which the rank itself does; each
active round adds one zero bit in front of the rank's one bit in PD.
The builder keeps two streams, the interval starts, one bit per rank,
and PD as bit-plane counters; it moves marks only forward through LF,
and works each round in one pass, a whole chunk at a time on packed
words of one bit per rank.  A symbol's ranks are an AND of the chunk's
bit planes, gathered by an 8x8 bit-matrix transpose; its first marks are
a carry add over them; their LF-forward is one byte translation of a key
of symbol·2 + mark a rank; the active ranks are the first marks that
are not starts; and PD grows by them in the carry-save add of
Harley-Seal popcounts (Mula, Kurz and Lemire, 2018).
"""

from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from time import perf_counter

from . import emlayer
from .emlayer import JoinedBits, from_planes, spread
from .errors import NotIncreasing, OutOfRange
from .succinct import GammaStream

# unary_code codes this many counts at a time
PIECE = 1024
ZEROS = {c: "0" * c for c in range(64)}  # shared by the small counts


class IntervalList:
    """Sorted, non-overlapping rank intervals, gamma-differential coded.

    Lower and upper bounds each form a strictly increasing sequence and
    are stored as gap streams.
    """

    def __init__(self):
        self._low = GammaStream()
        self._high = GammaStream()
        self.count = 0
        self._last_low = -1
        self._last_high = -1
        self._tail = 0  # upper bound of the last interval, for appends

    @classmethod
    def single(cls, lo, hi):
        il = cls()
        il.append(lo, hi)
        return il

    @classmethod
    def from_pairs(cls, pairs):
        il = cls()
        for lo, hi in pairs:
            il.append(lo, hi)
        return il

    def append(self, lo, hi):
        if lo >= hi:
            raise OutOfRange("empty interval (%d, %d)" % (lo, hi))
        if lo <= self._last_low or hi <= self._last_high or lo < self._tail:
            raise NotIncreasing("intervals must be sorted and non-overlapping")
        self._low.put(lo - self._last_low - 1)
        self._high.put(hi - self._last_high - 1)
        self._last_low, self._last_high, self._tail = lo, hi, hi
        self.count += 1

    def __len__(self):
        return self.count

    def __iter__(self):
        low = self._low.reader()
        high = self._high.reader()
        lo = hi = -1
        for _ in range(self.count):
            lo += low.get() + 1
            hi += high.get() + 1
            yield lo, hi

    def total_bits(self):
        return self._low.total_bits + self._high.total_bits

    def is_partition(self, n):
        prev = 0
        for lo, hi in self:
            if lo != prev:
                return False
            prev = hi
        return prev == n


def unary_code(counts):
    """PD's coder: the code of counts, c zeros and a one a count, as an
    integer, bit 0 first, and its length: PIECE counts at a time coded as
    0/1 text and packed, the fewer than 8 bits left carried on."""
    it, out, rest = iter(counts), bytearray(), ""
    for batch in iter(lambda: list(islice(it, PIECE)), []):
        bits = rest + "1".join([ZEROS.get(c) or "0" * c for c in batch]) + "1"
        cut = len(bits) & ~7
        out += int(bits[:cut][::-1] or "0", 2).to_bytes(cut >> 3, "little")
        rest = bits[cut:]
    high = int(rest[::-1] or "0", 2) << 8 * len(out)
    return int.from_bytes(out, "little") | high, 8 * len(out) + len(rest)


def _grow(planes, marks):
    """Bit planes plus one at the ranks marked in the packed word ``marks``:
    a ripple-carry add, one plane more on a carry out of the top plane."""
    grown = []
    for p in planes:
        grown.append(p ^ marks)
        marks &= p
    return grown + [marks] * (marks > 0)


class PdBits:
    """Bit vector with one 1 bit per rank; zeros precede their rank's 1.

    PD is held as its n per-rank zero counts, ``capacity`` ranks a chunk,
    each chunk as its bit planes: plane j is a packed word whose bit i is
    bit j of rank i's count, as many planes as the largest count has bits.
    A stream holds each chunk as one ``bytes`` chunk, its planes back to
    back, ``(size + 7) >> 3`` bytes each; with no stream every count is 0.
    Its length in bits is n plus the counts.
    """

    def __init__(self, planes, n, capacity):
        self._bits = planes
        self.n = n
        self.capacity = capacity

    def written(self, factory, chunks):
        """PD of the same ranks from each chunk's bit planes, taken and
        written one chunk at a time, on a new stream that gives a chunk
        back whole up to 64 planes."""
        out = factory.stream("pd", ((self.capacity + 7) >> 3) << 6)
        for planes, size in zip(chunks, self._sizes()):
            out.append_whole(b"".join(p.to_bytes((size + 7) >> 3, "little")
                                      for p in planes))
        return PdBits(out.finish(), self.n, self.capacity)

    def _sizes(self):
        return (min(self.capacity, self.n - lo)
                for lo in range(0, self.n, self.capacity))

    def chunks(self):
        """Each chunk's bit planes, big integers."""
        raw = (repeat(b"") if self._bits is None
               else self._bits.rewind().chunks())
        for chunk, size in zip(raw, self._sizes()):
            step = (size + 7) >> 3
            yield [int.from_bytes(chunk[j : j + step], "little")
                   for j in range(0, len(chunk), step)]

    def lanes(self):
        """Each chunk's counts, unsliced one chunk at a time."""
        return map(from_planes, self.chunks(), self._sizes())

    def column(self, capacity, factory):
        """The walk's column, PD's counts cut at ``capacity`` ranks: in
        memory if they fit one buffer (``StreamFactory.from_items``)."""
        lanes = self.lanes()
        if self.n <= min(capacity, factory.capacity, self.capacity):
            return factory.from_items(next(lanes), "column")
        out = factory.stream("column", capacity)
        for lane in lanes:
            out.append_chunk(lane)
        return out.finish()

    def counts(self):
        """Zero-bit count in front of each rank's one bit."""
        return list(chain.from_iterable(self.lanes()))

    def bit_string(self):
        word, bits = unary_code(chain.from_iterable(self.lanes()))
        return format(word, "b").zfill(bits)[::-1] if bits else ""

    def __len__(self):
        return self.n + sum(p.bit_count() << j for planes in self.chunks()
                            for j, p in enumerate(planes))


# one external round: interval starts, ranks newly set, active ranks, PD
# bits after the round (n plus the active ranks of every round so far) and
# wall time
RoundStats = namedtuple("RoundStats", "starts newly_set active pd_bits seconds")


@dataclass
class RoundResult:
    pd: PdBits
    set_marks: object      # bit stream over ranks: value set
    rounds: int
    stats: list = field(default_factory=list)  # RoundStats per round


# the bytes of a segment of _planes and _keys, which keeps their masks and
# temporaries small; per delta swap of the transpose, its distance
# and its mask, the bits that move, in every 64-bit lane of a segment
SEGMENT = 4096
SWAPS = [(shift, int.from_bytes(mask.to_bytes(8, "little") * (SEGMENT >> 3),
                                "little"))
         for shift, mask in ((7, 0x00AA00AA00AA00AA),
                             (14, 0x0000CCCC0000CCCC),
                             (28, 0x00000000F0F0F0F0))]
ONES = int.from_bytes(b"\x01" * SEGMENT, "little")  # 0/1 bytes of spread
# a key byte's mark, its low bit, as an ASCII digit for int(digits, 2)
DIGIT = b"01" * 128
# per symbol a below 128, every key byte but a's two, 2a and 2a + 1
OTHERS = [bytes(range(2 * a)) + bytes(range(2 * a + 2, 256))
          for a in range(128)]
# a byte's low 7 bits; per top bit h, the bytes whose top bit is not h
LOW7 = bytes(range(128)) * 2
HALVES = (bytes(range(128, 256)), bytes(range(128)))


def _planes(chunk, count):
    """The low ``count`` bit planes of a chunk of bytes: plane j is the
    packed word whose bit i is bit j of byte i.

    A segment of the chunk is one big integer, each 8 bytes of it a 64-bit
    lane, an 8x8 bit matrix that three delta swaps transpose (Warren,
    *Hacker's Delight*, 7-3), so that byte j of a lane holds bit j of its
    8 bytes: plane j's bytes are every 8th from j.
    """
    view = memoryview(chunk)
    parts = [[] for _ in range(count)]
    for lo in range(0, len(chunk), SEGMENT):
        x = int.from_bytes(view[lo : lo + SEGMENT], "little")
        for shift, mask in SWAPS:
            t = (x ^ x >> shift) & mask
            x ^= t ^ t << shift
        raw = x.to_bytes(-(-min(SEGMENT, len(chunk) - lo) >> 3) << 3,
                         "little")
        for j, part in enumerate(parts):
            part.append(raw[j::8])
    return [int.from_bytes(b"".join(part), "little") for part in parts]


def _masks(planes, word, value=0):
    """Each value of the planes that some rank of ``word`` holds, in value
    order, with the packed word of those ranks: ANDs of the planes or
    their complements, top plane first and depth first, so one word a
    plane is alive."""
    if not word:
        return
    if not planes:
        yield value, word
        return
    *low, top = planes
    high = word & top
    yield from _masks(low, word ^ high, value << 1)
    yield from _masks(low, high, value << 1 | 1)


def _key(values, marks, size):
    """Each rank's value·2 + mark, one byte, highest rank first, of at most
    a segment: ``values`` a byte a rank, rank 0 lowest; ``marks`` packed."""
    return (values << 1 | spread(marks, ONES)).to_bytes(size, "big")


def _keys(chunk, marks, split):
    """The chunk's key, symbol·2 + mark a rank, one ``bytes`` made a segment
    of ranks at a time, the highest first: for symbols below 128, one key;
    with ``split``, one for the symbols of either top bit, each in rank
    order, split by two translate-deletes of a top·2 + mark key."""
    raw = marks.to_bytes((len(chunk) + 7) >> 3, "little")
    keys = [[], []]
    for lo in reversed(range(0, len(chunk), SEGMENT)):
        seg = memoryview(chunk)[lo : lo + SEGMENT]
        values = int.from_bytes(seg, "little")
        mark = int.from_bytes(raw[lo >> 3 : (lo + SEGMENT) >> 3], "little")
        if not split:
            keys[0].append(_key(values, mark, len(seg)))
            continue
        tops = _key(values >> 7 & ONES, mark, len(seg))
        rev = bytes(seg)[::-1]
        for half, other in enumerate(HALVES):
            low = rev.translate(LOW7, other)
            digits = tops.translate(DIGIT, OTHERS[half]) or b"0"
            keys[half].append(_key(int.from_bytes(low, "big"),
                                   int(digits, 2), len(low)))
    return [b"".join(parts) for parts in keys]


def _round(keys, starts, pd, sigma, factory):
    """One round in one pass: the next round's interval starts; PD grown
    by the round's active ranks; and how many starts and active ranks.

    A rank is *first* when its BWT symbol a occurs there for the first
    time in its interval.  Per chunk, on packed words of one bit per rank,
    B the interval starts as ``words`` reads them and A the ranks of
    symbol a, an AND of the chunk's bit planes (``_planes``, ``_masks``),
    with D = ~A the sum T = D + (B & D) + carry carries a one from each
    interval start across the non-a ranks into the next a, where it
    stops: that a is first, and so is an a on a start, A & (T | B).  The
    carry out of the chunk continues a's carry into the next chunk; it
    begins at one, because rank 0 begins an interval in every round,
    marked in ``starts`` or not.  The OR of all symbols' first marks is
    the chunk's first word, first[r] = next_starts[LF(r)].

    The active ranks are first & ~B, and the chunk's PD planes grow by
    them (``_grow``) and go to the new PD before the next chunk is read.
    In round k, first[r] is LCP[LF(r)] <= k and B[r] is LCP[r] >= k
    negated, so rank r gains a zero bit in the rounds LCP[LF(r)] to
    LCP[r], LCP[r] - LCP[LF(r)] + 1 in all: the PLCP difference.

    The LF-forward of the marks is one translate-delete per symbol of the
    chunk's key, a byte symbol·2 + mark a rank, highest rank first
    (``_keys``): it deletes the other symbols' bytes and maps a's to the
    digits of its marks, so ``int(digits, 2)`` is a's marks, one bit per
    rank.  Appending each symbol's marks to its own bit stream is the LF
    mapping; the finished buckets, in symbol order, are read in place as
    the next starts (``JoinedBits``).  A BWT of one chunk yields the marks
    in symbol order already, so they go straight to one starts stream.
    """
    count = max(1, (sigma - 1).bit_length())
    one = len(keys) <= keys.capacity  # one chunk: one starts stream
    nxt = factory.bits("starts", keys.capacity) if one else None
    buckets = defaultdict(lambda: nxt if one else factory.bits("bucket"))
    tally = [0, 0]  # the next starts, the active ranks

    def grown():
        """Each chunk's PD planes, grown by its active ranks."""
        carry = [1] * sigma
        for chunk, (b, size), held in zip(keys.chunks(),
                                          starts.rewind().words(),
                                          pd.chunks()):
            mask = (1 << size) - 1
            planes = _planes(chunk, count)
            word = 0
            present = []
            for a, at in _masks(planes, mask):
                d = mask ^ at
                t = d + (b & d) + carry[a]
                word |= at & (t | b)
                present.append((a, t >> size))
            if b:  # a start carries into the next a of every symbol absent
                carry = [1] * sigma
            for a, out in present:
                carry[a] = out
            keyed = _keys(chunk, word, count == 8)
            for a, _ in present:
                digits = keyed[a >> 7].translate(DIGIT, OTHERS[a & 127])
                buckets[a].append_word(int(digits, 2), len(digits))
            active = word & ~b
            tally[0] += word.bit_count()
            tally[1] += active.bit_count()
            yield _grow(held, active)

    pd = pd.written(factory, grown())
    if not one:
        nxt = JoinedBits([buckets.pop(a).finish() for a in sorted(buckets)],
                         len(keys), keys.capacity)
    return nxt.finish(), pd, *tally


def run_rounds_external(bwt, factory=None, max_rounds=None, stop=None):
    """Sequential round builder over rank-order bit streams.

    The state is two streams: the interval starts, a bit stream of one
    bit per rank, and PD's bit planes.  After k rounds the starts are the
    ranks that begin an interval of equal length-k prefixes, the ranks of
    LCP below k: the set marks (none before round 0, an empty
    ``JoinedBits``).  A round is one pass, chunk by chunk (``_round``):
    the first marks, the next starts as their LF images, and PD grown by
    one at the active ranks, first and not a start, in a ripple-carry add
    of their marks to the planes (``_grow``).  Marks move only forward
    through LF: the LF image of rank r is a new start exactly when r is
    first.  The starts only grow, so a round's newly set ranks are its
    starts less the round before's.

    Besides stream buffers and one chunk of PD's planes, a round keeps one
    carry of the first marks per symbol in memory.  Each round appends its
    ``RoundStats`` to ``stats``, then ``stop(stats)`` may end the rounds.
    The set marks are returned, released by the caller; every other
    stream is released here.
    """
    factory = factory or emlayer.StreamFactory()
    n = bwt.n
    cap = bwt.stream(factory).capacity

    starts = JoinedBits([], n, cap)
    pd = PdBits(None, n, cap)  # no planes: every count 0
    bits = n  # PD's length: n plus every round's active ranks
    set_count = 0
    stats = []

    while set_count < n and len(stats) <= n:
        if max_rounds is not None and len(stats) >= max_rounds:
            break
        factory.meter.note("round_state", 8)
        began = perf_counter()
        nxt, grown, count, active = _round(bwt.stream(factory), starts, pd,
                                           bwt.sigma, factory)
        factory.release(pd._bits, starts)
        pd, starts = grown, nxt
        bits += active
        stats.append(RoundStats(count, count - set_count, active, bits,
                                perf_counter() - began))
        set_count = count
        if stop is not None and stop(stats):
            break

    return RoundResult(pd, starts, len(stats), stats)
