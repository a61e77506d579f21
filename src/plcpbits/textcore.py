"""Reference construction of suffix structures, linear and circular.

Everything here is brute force on purpose: these are the ground-truth
oracles that every other module is checked against.  Texts are over the
dense rank alphabet 0..sigma-1; a non-circular text ends in a unique
minimal terminator (rank 0).
"""

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise, repeat, starmap
from operator import add, eq, floordiv, mul

from .emlayer import StreamFactory, sorted_array, typecode
from .errors import (AlphabetTooLarge, CircularPowerInput, LengthMismatch,
                     OutOfRange)


@dataclass(frozen=True)
class Text:
    """Symbols over 0..sigma-1, taken from any iterable of ints and held
    as bytes, one per symbol, as ``Bwt`` holds its own: sigma is at most
    256."""

    symbols: bytes
    sigma: int
    circular: bool = False

    def __post_init__(self):
        symbols = self.symbols
        if not isinstance(symbols, bytes):
            symbols = tuple(symbols)
        if not symbols:
            raise OutOfRange("empty text")
        if min(symbols) < 0 or max(symbols) >= self.sigma:
            raise OutOfRange("symbol outside alphabet 0..%d" % (self.sigma - 1))
        if self.sigma > 256:
            raise AlphabetTooLarge("one byte per symbol caps sigma at 256")
        object.__setattr__(self, "symbols", bytes(symbols))
        if not self.circular:
            if self.symbols[-1] != 0 or self.symbols.count(0) != 1:
                raise OutOfRange("non-circular text must end in a unique 0")

    def __len__(self):
        return len(self.symbols)

    def at(self, i):
        """Symbol at position i, read circularly when the text is circular."""
        if self.circular:
            return self.symbols[i % len(self.symbols)]
        return self.symbols[i]


@dataclass(frozen=True)
class _Table:
    """An immutable table of ints indexed from 0."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)


class SuffixArray(_Table):
    """Text position of each rank."""


class InverseSuffixArray(_Table):
    """Rank of each text position."""


class LcpArray(_Table):
    """LCP of each rank with the rank before it."""


class PlcpArray(_Table):
    """LCP values in text position order."""


class Bwt:
    """Burrows-Wheeler transform plus occurrence counts C and prefix sums D.

    The symbols are bytes, one per symbol, so sigma is at most 256.  They
    are held in memory or live in a sequential byte stream from the
    emlayer; ``stream()`` exposes a uniform sequential view whose chunks
    are bytes.
    """

    def __init__(self, symbols, sigma, circular=False, factory=None):
        if sigma > 256:
            raise AlphabetTooLarge("one byte per symbol caps sigma at 256")
        self._factory = factory
        self._held = not hasattr(symbols, "chunks")  # symbols held in memory
        self._symbols = bytes(symbols) if self._held else None
        self._stream = None if self._held else symbols
        chunks = [self._symbols] if self._held else symbols.rewind().chunks()
        counts = [0] * sigma
        self.n = 0
        for chunk in chunks:
            self.n += len(chunk)
            counts = list(map(add, counts, map(chunk.count, range(sigma))))
        if sum(counts) != self.n:
            raise OutOfRange("symbol outside alphabet 0..%d" % (sigma - 1))
        self.sigma = sigma
        self.circular = circular
        self.d_array = [0] * (sigma + 1)
        for a in range(sigma):
            self.d_array[a + 1] = self.d_array[a] + counts[a]

    def stream(self, factory=None):
        """Sequential view of the symbols, rewound to the start.

        Symbols held in memory are viewed through ``factory``, or the
        factory of the last view: that factory counts the view's rewinds
        and cuts its chunks, like those of the streams it creates.
        """
        if self._held and (self._stream is None or
                           factory not in (None, self._factory)):
            self._factory = factory or self._factory or StreamFactory()
            self._stream = self._factory.wrap(self._symbols, name="bwt")
        return self._stream.rewind()

    def to_list(self):
        """The symbols as a fresh list of ints."""
        if self._held:
            return list(self._symbols)
        return list(self.stream().items())

    def __len__(self):
        return self.n


@dataclass(frozen=True)
class SampledIsa:
    """ISA values at positions 0, rate, 2*rate, ..., held in an array of
    the narrowest type that holds n - 1 (``emlayer.typecode``)."""

    rate: int
    n: int
    ranks: array = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "ranks",
                           array(typecode(self.n - 1), self.ranks))

    @cached_property
    def cursors(self):
        """The walk's start cursors, ``ranks[s] * m + s`` for each of the m
        samples s, in rank order: one typed array, made on first use."""
        m = len(self.ranks)
        return sorted_array(map(add, map(mul, self.ranks, repeat(m)),
                                range(m)), typecode(self.n * m - 1))

    def repeated(self):
        """Whether a rank is sampled twice: neighbours in ``cursors``."""
        high = map(floordiv, self.cursors, repeat(len(self.ranks)))
        return any(starmap(eq, pairwise(high)))

    def __len__(self):
        return len(self.ranks)


def brute_period(symbols):
    """Smallest p such that symbols = root^(n/p); checks every divisor."""
    n = len(symbols)
    symbols = tuple(symbols)
    for p in range(1, n + 1):
        if n % p == 0 and symbols == symbols[:p] * (n // p):
            return p
    return n


def _suffix_array_doubling(text):
    """Prefix-doubling suffix sort; used above the direct-comparison size."""
    n = len(text)
    s = text.symbols
    rank = list(s)
    order = list(range(n))
    d = 1
    while d < n:
        if text.circular:
            key = lambda i: (rank[i], rank[(i + d) % n])
        else:
            key = lambda i: (rank[i], rank[i + d] if i + d < n else -1)
        order.sort(key=key)
        nrank = [0] * n
        for a, b in pairwise(order):
            nrank[b] = nrank[a] + (key(a) != key(b))
        rank = nrank
        if rank[order[-1]] == n - 1:
            break
        d *= 2
    if text.circular and d >= n:
        # ties after n compared symbols break by start index
        order.sort(key=lambda i: (rank[i], i))
    return order


_DIRECT_SORT_LIMIT = 4096


def build_suffix_array(text):
    """Sort all suffixes (rotations when circular) by direct comparison.

    Large inputs switch to prefix doubling; both paths produce the same
    unique order.
    """
    n = len(text)
    if text.circular and n > 1 and brute_period(text.symbols) < n:
        raise CircularPowerInput("circular text is a proper integer power")
    if n > _DIRECT_SORT_LIMIT:
        order = _suffix_array_doubling(text)
    elif text.circular:
        doubled = text.symbols * 2
        order = sorted(range(n), key=lambda i: (doubled[i : i + n], i))
    else:
        order = sorted(range(n), key=lambda i: text.symbols[i:])
    return SuffixArray(order)


def invert_sa(sa):
    n = len(sa)
    inv = [0] * n
    for rank, pos in enumerate(sa.values):
        inv[pos] = rank
    return InverseSuffixArray(inv)


def naive_lcp_pair(text, p, q):
    """Length of the longest common prefix of the suffixes at p and q.

    Circular texts compare periodic extensions, capped at n symbols.
    """
    n = len(text)
    if p == q:
        raise OutOfRange("positions must differ")
    length = 0
    if text.circular:
        while length < n and text.at(p + length) == text.at(q + length):
            length += 1
    else:
        while (p + length < n and q + length < n
               and text.symbols[p + length] == text.symbols[q + length]):
            length += 1
    return length


def kasai_lcp(text, sa):
    """LCP array of adjacent suffix-array ranks.

    Non-circular texts use the linear-time single-pass construction;
    circular texts fall back to capped pairwise comparison.
    """
    n = len(text)
    isa = invert_sa(sa)
    lcp = [0] * n
    if text.circular:
        for i in range(1, n):
            lcp[i] = naive_lcp_pair(text, sa[i - 1], sa[i])
        return LcpArray(lcp)
    s = text.symbols
    h = 0
    for pos in range(n):
        r = isa[pos]
        if r > 0:
            prev = sa[r - 1]
            while (pos + h < n and prev + h < n
                   and s[pos + h] == s[prev + h]):
                h += 1
            lcp[r] = h
            if h > 0:
                h -= 1
        else:
            h = 0
    return LcpArray(lcp)


def permute_lcp(lcp, isa):
    if len(lcp) != len(isa):
        raise LengthMismatch("LCP and ISA lengths differ")
    return PlcpArray([lcp[isa[i]] for i in range(len(isa))])


def build_bwt(text, sa, factory=None):
    n = len(text)
    s = text.symbols
    symbols = [s[(sa[i] + n - 1) % n] for i in range(n)]
    return Bwt(symbols, text.sigma, circular=text.circular, factory=factory)


def sample_isa(isa, rate):
    if rate < 1:
        raise OutOfRange("sampling rate must be at least 1")
    n = len(isa)
    return SampledIsa(rate=rate, n=n,
                      ranks=[isa[i] for i in range(0, n, rate)])
