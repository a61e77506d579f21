"""Round-based builders for the rank-order difference bit vector PD.

Both builders set LCP values in increasing rounds via backward search.
A rank is *active* from the round in which its LF image receives a value
until the round in which the rank itself does; each active round adds
one zero bit in front of the rank's one bit in PD.  The in-memory
strategy walks a pruned interval queue over a wavelet tree; the
sort-based strategy re-derives all extension intervals every round with
nothing but sequential passes and bucket sorts.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add

from . import emlayer
from .emlayer import em_stable_sort_by_symbol, inverse_radix_sort, iter_items
from .errors import NotIncreasing, OutOfRange
from .succinct import GammaStream


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


class PdBits:
    """Bit vector with one 1 bit per rank; zeros precede their rank's 1."""

    def __init__(self, bits, n):
        self._bits = bits  # EmStream or list of 0/1
        self.n = n

    @classmethod
    def from_counts(cls, counts, factory=None):
        """Unary-code per-rank zero counts into a PD stream.

        This is the one PD writer: every rewrite of PD maps the counts of
        the previous vector and hands them here.
        """
        factory = factory or emlayer.StreamFactory()
        out = factory.stream("pd")
        buf = []
        n = 0
        for c in counts:
            if c:
                buf.extend(repeat(0, c))
            buf.append(1)
            n += 1
            if len(buf) >= factory.capacity:
                out.append_chunk(buf)
                buf = []
        out.append_chunk(buf)
        return cls(out.finish(), n)

    def iter_bits(self):
        return iter_items(self._bits)

    def counts(self):
        """Zero-bit count in front of each rank's one bit."""
        return list(self.iter_counts())

    def iter_counts(self):
        c = 0
        for b in self.iter_bits():
            if b:
                yield c
                c = 0
            else:
                c += 1

    def bit_string(self):
        return "".join(str(b) for b in self.iter_bits())

    def __len__(self):
        return len(self._bits)


@dataclass
class RoundResult:
    pd: PdBits
    set_marks: object      # bit stream/list over ranks: value already set
    active_marks: object   # bit stream/list over ranks: still collecting
    rounds: int


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
    return RoundResult(pd, list(s_set), [1 if r in active else 0 for r in range(n)],
                       rounds)


def _zsequence(bwt, queue, factory):
    """Interval-sorted symbol counts: the per-round Z stream.

    The queue partitions the ranks.  Each interval's BWT slice is counted
    by symbol, and in symbol order every symbol contributes its count at
    its first occurrence and zero at the others.
    """
    z = factory.stream("z")
    it = bwt.stream().items()
    for lo, hi in queue:
        if hi - lo == 1:
            z.append((next(it), 1))
            continue
        counts = Counter(islice(it, hi - lo))
        for a in sorted(counts):
            z.append((a, counts[a]))
            if counts[a] > 1:
                z.append_chunk([(a, 0)] * (counts[a] - 1))
    return z.finish()


def pd_increment(pd, active, factory=None):
    """Insert one zero bit in front of the one bit of each active rank."""
    return PdBits.from_counts(map(add, pd.iter_counts(), iter_items(active)),
                              factory)


def run_rounds_external(bwt, factory=None, max_rounds=None):
    """Sort-based round builder over sequential streams only.

    Per round: slice-sort the BWT along the current interval partition,
    symbol-sort the resulting count sequence so its index equals the
    target rank, derive the newly-set marks, map them back through
    inverse LF to find ranks to activate, grow PD, then read the next
    partition off the nonzero counts.
    """
    factory = factory or emlayer.StreamFactory()
    meter = factory.meter
    n = bwt.n
    sigma = bwt.sigma

    s_marks = factory.zeros(n, "s")
    active = factory.zeros(n, "active")
    pd = PdBits.from_counts(repeat(0, n), factory)
    queue = IntervalList.single(0, n)
    set_count = 0
    rounds = 0

    while set_count < n and rounds <= n:
        if max_rounds is not None and rounds >= max_rounds:
            break
        meter.note("round_state", 8)

        z = _zsequence(bwt, queue, factory)
        zs = em_stable_sort_by_symbol(z, sigma, factory)

        # marks over target ranks: value becomes set in this round
        znew = factory.stream("znew")
        sit = s_marks.rewind().items()
        for chunk in zs.chunks():
            buf = []
            for _, c in chunk:
                sb = next(sit)
                buf.append(1 if c and not sb else 0)
            znew.append_chunk(buf)
        znew.finish()

        # same marks in source-rank order (inverse LF)
        zsrc = inverse_radix_sort(bwt.stream(), znew, sigma, factory)

        # activate source ranks whose LF image is newly set
        new_active = factory.stream("active")
        sit = s_marks.rewind().items()
        ait = active.rewind().items()
        for chunk in zsrc.chunks():
            buf = []
            for zb in chunk:
                ab = next(ait)
                sb = next(sit)
                buf.append(1 if ab or (zb and not sb) else 0)
            new_active.append_chunk(buf)
        new_active.finish()

        pd_next = pd_increment(pd, new_active, factory)
        factory.release(pd._bits)
        pd = pd_next

        # set new ranks, deactivate them, and read off the next partition
        next_queue = IntervalList()
        s_next = factory.stream("s")
        act_next = factory.stream("active")
        sit = s_marks.rewind().items()
        ait = new_active.rewind().items()
        rank = 0
        for chunk in zs.rewind().chunks():
            sbuf = []
            abuf = []
            for _, c in chunk:
                sb = next(sit)
                ab = next(ait)
                if c:
                    if not sb:
                        set_count += 1
                    sbuf.append(1)
                    abuf.append(0)
                    next_queue.append(rank, rank + c)
                else:
                    sbuf.append(sb)
                    abuf.append(ab)
                rank += 1
            s_next.append_chunk(sbuf)
            act_next.append_chunk(abuf)
        factory.release(s_marks, active, new_active, z, zs, znew, zsrc)
        s_marks = s_next.finish()
        active = act_next.finish()
        queue = next_queue
        rounds += 1

    return RoundResult(pd, s_marks, active, rounds)
