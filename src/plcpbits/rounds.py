"""Round-based builders for the rank-order difference bit vector PD.

Both builders set LCP values in increasing rounds via backward search.
A rank is *active* from the round in which its LF image receives a value
until the round in which the rank itself does; each active round adds
one zero bit in front of the rank's one bit in PD.  The in-memory
strategy walks a pruned interval queue over a wavelet tree.  The
sequential strategy keeps the round's state as rank-order bit streams,
one 0/1 byte per rank, moves marks only forward through LF, and works
each pass a whole chunk at a time with byte translation, selection and
big-integer bit operations.
"""

from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from time import perf_counter

from . import emlayer
from .emlayer import concat_buckets
from .errors import LengthMismatch, NotIncreasing, OutOfRange
from .succinct import GammaStream

# PD is split into per-rank zero runs at most this many ranks at a time.
PIECE = 4096


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


class ZeroRuns:
    """The zero runs of PD in rank order, run r in front of rank r's one.

    PD is split on its one bits one window of at most PIECE bytes at a
    time, so no more than about 2*PIECE runs are held at once.
    """

    def __init__(self, bits):
        self._windows = (bytes(chunk[i : i + PIECE])
                         for chunk in bits.rewind().chunks()
                         for i in range(0, len(chunk), PIECE))
        self._runs = []
        self._pos = 0
        self._zeros = 0  # zeros read past the last one bit

    def _fill(self):
        for window in self._windows:
            if 1 not in window:
                self._zeros += len(window)
                continue
            runs = window.split(b"\x01")
            if self._zeros:
                runs[0] = bytes(self._zeros) + runs[0]
            self._zeros = len(runs.pop())
            self._runs = self._runs[self._pos :] + runs
            self._pos = 0
            return
        raise LengthMismatch("PD holds fewer one bits than ranks")

    def take(self, k):
        """The runs of the next ``k`` ranks, ``k`` at most PIECE."""
        while len(self._runs) - self._pos < k:
            self._fill()
        pos = self._pos
        self._pos += k
        return self._runs[pos : pos + k]


def _unary(runs):
    """PD bytes of consecutive ranks from their zero runs."""
    return b"\x01".join(runs) + b"\x01"


def unary_code(counts):
    """PD's coder: the 0/1 bytes of a count sequence, PIECE counts a piece."""
    it = iter(counts)
    for batch in iter(lambda: list(islice(it, PIECE)), []):
        yield _unary(map(bytes, batch))


class PdBits:
    """Bit vector with one 1 bit per rank; zeros precede their rank's 1.

    The bits are a byte stream, one 0/1 byte per bit.
    """

    def __init__(self, bits, n):
        self._bits = bits
        self.n = n

    @classmethod
    def from_counts(cls, counts, factory=None):
        """Unary-code per-rank zero counts into a PD stream."""
        factory = factory or emlayer.StreamFactory()
        out = factory.stream("pd")
        n = 0
        for piece in unary_code(counts):
            out.append_chunk(piece)
            n += piece.count(1)
        return cls(out.finish(), n)

    def rewrite(self, marks, change, factory):
        """One pass over PD and a rank-order byte stream's ``marks`` chunks.

        For each piece of at most PIECE ranks, ``change(rank, piece,
        runs)`` maps the zero runs of those ranks, the first at ``rank``,
        to their new runs.  Every rewrite of PD goes through here.
        """
        runs = self.runs()
        out = factory.stream("pd")
        rank = 0
        for chunk in marks:
            for i in range(0, len(chunk), PIECE):
                piece = chunk[i : i + PIECE]
                out.append_chunk(_unary(change(rank, piece,
                                               runs.take(len(piece)))))
                rank += len(piece)
        return PdBits(out.finish(), self.n)

    def runs(self):
        return ZeroRuns(self._bits)

    def iter_bits(self):
        return self._bits.rewind().items()

    def counts(self):
        """Zero-bit count in front of each rank's one bit."""
        return list(self.iter_counts())

    def iter_counts(self):
        runs = self.runs()
        for lo in range(0, self.n, PIECE):
            yield from map(len, runs.take(min(PIECE, self.n - lo)))

    def bit_string(self):
        return "".join(str(b) for b in self.iter_bits())

    def __len__(self):
        return len(self._bits)


# one external round: interval starts, ranks newly set, active ranks, PD
# bits after the round and wall time
RoundStats = namedtuple("RoundStats", "starts newly_set active pd_bits seconds")


@dataclass
class RoundResult:
    pd: PdBits
    set_marks: object      # 0/1 byte stream or list over ranks: value set
    rounds: int
    stats: list = field(default_factory=list)  # RoundStats per round


def run_rounds_internal(bwt, max_rounds=None):
    """Wavelet-tree round builder, entirely in memory.

    Extends a pruned queue of rank intervals one symbol at a time; the
    lower bound of each fresh extension receives its value in the current
    round and activates its LF source.
    """
    n = bwt.n
    wt = bwt.wavelet()
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
    pd = PdBits.from_counts(pd_counts)
    return RoundResult(pd, list(s_set), rounds)


def _marks(factory, name, n, capacity):
    """A rank-order byte stream of n zeros."""
    out = factory.stream(name, capacity)
    for lo in range(0, n, capacity):
        out.append_chunk(bytes(min(capacity, n - lo)))
    return out.finish()


# maps a bare a (0xFE) to 0 and an a with a mark (0xFF) to 1
KEEP_MARK = bytes(c == 0xFF for c in range(256))


def _next_starts(keys, starts, sigma, factory):
    """The next round's interval starts, and this round's first marks.

    A rank is *first* when its BWT symbol a occurs there for the first
    time in its interval.  Per chunk and symbol present, on big integers
    with one byte per rank (A: 0xFF where the BWT holds a, D = ~A, B: 1 at
    the interval starts), the sum T = D + (B & D) + carry carries a one
    from each interval start across the non-a ranks into the next a,
    where it stops: that a is first, and so is an a on a start.  The
    carry out of the chunk continues into the next chunk; it begins at
    one, because rank 0 begins an interval in every round, marked in
    ``starts`` or not.  The marks of a are then compacted in rank order
    by one byte translation: a bare a is 0xFE, a first a 0xFF and every
    other symbol 0x00, which ``translate(KEEP_MARK, b"\\x00")`` deletes.
    Appending each symbol's marks to its own stream is the LF mapping; the
    streams are then concatenated in symbol order.  A BWT of one chunk
    yields the marks in symbol order already, so they go straight to the
    next starts, with no stream per symbol.  The OR of all symbols'
    marks, translated without deleting, is the first marks in rank order:
    first[r] = next_starts[LF(r)].
    """
    # per symbol a, the byte table that maps a to 0xFF and all else to 0
    tables = [bytes(a) + b"\xff" + bytes(255 - a) for a in range(sigma)]
    carry = [1] * sigma
    if len(keys) <= keys.capacity:
        nxt = factory.stream("starts", keys.capacity)
        buckets = defaultdict(lambda: nxt)
    else:
        nxt = None
        buckets = defaultdict(lambda: factory.stream("bucket"))
    first = factory.stream("first", keys.capacity)
    for chunk, st in zip(keys.chunks(), starts.rewind().chunks()):
        width = 8 * len(chunk)
        mask = (1 << width) - 1
        high = int.from_bytes(b"\xfe" * len(chunk), "little")
        b = int.from_bytes(st, "little")
        marks = 0
        for a in range(sigma):
            if a not in chunk:
                if b:
                    carry[a] = 1
                continue
            at = int.from_bytes(chunk.translate(tables[a]), "little")
            d = mask ^ at
            t = d + (b & d) + carry[a]
            carry[a] = t >> width
            marked = at & (high | t | b)
            marks |= marked
            part = marked.to_bytes(len(chunk), "little").translate(
                KEEP_MARK, b"\x00")
            buckets[a].append_chunk(part)
        first.append_chunk(marks.to_bytes(len(chunk), "little").translate(
            KEEP_MARK))
    if nxt is None:
        nxt = concat_buckets(buckets, factory, "starts", keys.capacity)
    return nxt.finish(), first.finish()


def _active(new, old, first, first_prev, active, act_next, tally):
    """The round's marks, chunk by chunk: the ranks active in this round.

    The newly set ranks are the new starts that are not old starts.  A
    rank r turns active when its LF image is newly set, which is
    first[r] and not first_prev[r], unless r itself was set before this
    round (``old``: a rank set in this same round still gains its zero
    bit).  The next active marks, without the set ranks, go to
    ``act_next``; ``tally`` counts the starts, the newly set and the
    active ranks.
    """
    chunks = zip(new.rewind().chunks(), old.rewind().chunks(),
                 first.rewind().chunks(), first_prev.rewind().chunks(),
                 active.rewind().chunks())
    for nc, oc, fc, pc, ac in chunks:
        now, was = int.from_bytes(nc, "little"), int.from_bytes(oc, "little")
        a = int.from_bytes(ac, "little") | (
            int.from_bytes(fc, "little") & ~int.from_bytes(pc, "little")
            & ~was)
        tally[0] += now.bit_count()
        tally[1] += (now & ~was).bit_count()
        tally[2] += a.bit_count()
        act_next.append_chunk((a & ~now).to_bytes(len(nc), "little"))
        yield a.to_bytes(len(nc), "little")


def _grow(rank, piece, runs):
    """Every active rank gains one zero bit; the others keep their runs."""
    for i in compress(range(len(piece)), piece):
        runs[i] += b"\x00"
    return runs


def run_rounds_external(bwt, factory=None, max_rounds=None, stop=None):
    """Sequential round builder over rank-order bit streams.

    The state is four streams: the interval starts, the previous round's
    first marks, the active marks and PD.  After k rounds the starts are
    the ranks that begin an interval of equal length-k prefixes, which are
    the ranks of LCP below k: the set marks (none before round 0).  Per
    round, two passes, both chunk-wise:

    - the first marks, and the next starts as their LF images
      (``_next_starts``);
    - one PD rewrite (``_active``): the newly set ranks are the new starts
      not old; a rank turns active when its LF image is newly set, unless
      it was set before this round; every active rank gains a zero bit in
      PD, and the set ranks leave the active set.

    Marks move only forward through LF: the LF image of rank r is a new
    start exactly when r is first, and was an old start exactly when r
    was first in the round before.

    Besides stream buffers and at most 2*PIECE zero runs of PD, a round
    keeps one carry of the first marks per symbol in memory.  Each round
    appends its ``RoundStats`` to ``stats``, then ``stop(stats)`` may end
    the rounds.  The set marks are returned, released by the caller;
    every other stream is released here.
    """
    factory = factory or emlayer.StreamFactory()
    n = bwt.n
    sigma = bwt.sigma
    cap = bwt.stream(factory).capacity

    starts = _marks(factory, "starts", n, cap)
    first = _marks(factory, "first", n, cap)
    active = _marks(factory, "active", n, cap)
    pd = PdBits.from_counts(repeat(0, n), factory)
    set_count = 0
    stats = []

    while set_count < n and len(stats) <= n:
        if max_rounds is not None and len(stats) >= max_rounds:
            break
        factory.meter.note("round_state", 8)
        began = perf_counter()

        nxt, first_next = _next_starts(bwt.stream(factory), starts, sigma,
                                       factory)
        act_next = factory.stream("active", cap)
        tally = [0, 0, 0]
        pd_next = pd.rewrite(
            _active(nxt, starts, first_next, first, active, act_next, tally),
            _grow, factory)
        factory.release(pd._bits, starts, first, active)
        pd, starts, first = pd_next, nxt, first_next
        active = act_next.finish()
        set_count += tally[1]
        stats.append(RoundStats(*tally, len(pd), perf_counter() - began))
        if stop is not None and stop(stats):
            break

    factory.release(first, active)
    return RoundResult(pd, starts, len(stats), stats)
