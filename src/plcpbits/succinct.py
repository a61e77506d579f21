"""Succinct primitives.

Elias gamma coding (shifted so zero is encodable), a rank/select bit
vector whose select finds the word by bisection and the bit within it by
broadword select (Vigna, 2008), the 2n-bit PLCP codec and a
level-ordered wavelet tree, which the tests' round oracle walks.
"""

import struct
from bisect import bisect_right
from itertools import accumulate
from operator import sub

from .emlayer import pack
from .errors import DiffBoundViolation, OutOfRange, TruncatedCode

_WORD = 64
L8 = 0x0101010101010101  # one in every byte lane
H8 = L8 << 7  # every lane's high bit
# SEL8[8 * b + r]: the position of the r-th one bit of the byte b (a
# stable sort puts b's one bits first, in order)
SEL8 = bytes(i for b in range(256)
             for i in sorted(range(8), key=lambda i: ~b >> i & 1))


def _select_in_word(w, r):
    """Position of the r-th one bit (0-based) of the 64-bit word w, in a
    fixed number of steps (Vigna's broadword select): SWAR byte popcounts,
    their inclusive prefix sums s by one multiply, the target byte b as
    the count of lanes of s at most r (each lane stays below 128, so no
    borrow crosses lanes), then one table read within byte b."""
    s = w - (w >> 1 & 0x5555555555555555)
    s = (s & 0x3333333333333333) + (s >> 2 & 0x3333333333333333)
    s = (s + (s >> 4) & 0x0F0F0F0F0F0F0F0F) * L8 & 0xFFFFFFFFFFFFFFFF
    b = 8 * (((r * L8 | H8) - s & H8).bit_count())
    return b + SEL8[(w >> b & 0xFF) << 3 | r - (s << 8 >> b & 0xFF)]


class GammaStream:
    """Append-only bit sequence of gamma codewords, MSB-first.

    A value v is stored as gamma(v+1): floor(log2(v+1)) zero bits
    followed by the binary digits of v+1.  The shift keeps zero
    encodable, which the round machinery needs for its count markers.
    """

    def __init__(self):
        self._bits = bytearray()
        self.count = 0

    @property
    def total_bits(self):
        return len(self._bits)

    def put(self, v):
        if v < 0:
            raise OutOfRange("gamma code is for non-negative values")
        x = v + 1
        width = x.bit_length()
        bits = self._bits
        bits.extend(b"\x00" * (width - 1))
        for shift in range(width - 1, -1, -1):
            bits.append((x >> shift) & 1)
        self.count += 1

    def put_all(self, values):
        for v in values:
            self.put(v)

    def bit_string(self):
        return "".join("1" if b else "0" for b in self._bits)

    def reader(self):
        return GammaReader(self)


class GammaReader:
    """Single-consumer cursor over a GammaStream."""

    def __init__(self, stream):
        self._bits = stream._bits
        self._pos = 0

    def get(self):
        bits = self._bits
        pos = self._pos
        end = len(bits)
        zeros = 0
        while pos < end and not bits[pos]:
            zeros += 1
            pos += 1
        if pos + zeros >= end:
            raise TruncatedCode("gamma decode past end of stream")
        x = 1
        pos += 1
        for _ in range(zeros):
            x = (x << 1) | bits[pos]
            pos += 1
        self._pos = pos
        return x - 1


class RsBitVector:
    """Plain bit vector with rank and select support.

    The bits are packed least-significant-bit first into 64-bit words.
    Rank uses per-word cumulative one counts; select binary-searches the
    cumulative table for the word, then finds the bit within it by
    broadword select (``_select_in_word``), in the same number of steps
    wherever the bit lies.
    """

    def __init__(self, bits):
        raw = bytes(bits)  # one 0/1 byte per bit
        self._load(pack(raw).to_bytes((len(raw) + 7) // 8, "little"),
                   len(raw))

    @classmethod
    def from_packed(cls, packed, n):
        """The first n bits of LSB-first packed bytes."""
        bv = cls.__new__(cls)
        bv._load(packed, n)
        return bv

    def _load(self, packed, n):
        count = -(-n // _WORD)
        words = list(struct.unpack(
            "<%dQ" % count, packed[: 8 * count].ljust(8 * count, b"\0")))
        if n % _WORD:
            words[-1] &= (1 << n % _WORD) - 1
        self._words = words
        self.n = n
        self._ranks = list(accumulate(map(int.bit_count, words), initial=0))
        self.ones = self._ranks[-1]

    def packed(self):
        """The bits packed LSB-first, (n + 7) // 8 bytes."""
        return struct.pack("<%dQ" % len(self._words),
                           *self._words)[: (self.n + 7) // 8]

    def __len__(self):
        return self.n

    def get(self, i):
        if not 0 <= i < self.n:
            raise OutOfRange("bit index %d out of range" % i)
        return (self._words[i // _WORD] >> (i % _WORD)) & 1

    def rank1(self, i):
        """Number of one bits strictly before index i."""
        if not 0 <= i <= self.n:
            raise OutOfRange("rank index %d out of range" % i)
        w, r = divmod(i, _WORD)
        count = self._ranks[w]
        if r:
            count += (self._words[w] & ((1 << r) - 1)).bit_count()
        return count

    def rank0(self, i):
        return i - self.rank1(i)

    def select1(self, j):
        """Index of the (j+1)-th one bit (0-indexed)."""
        if not 0 <= j < self.ones:
            raise OutOfRange("select1 argument %d out of range" % j)
        w = bisect_right(self._ranks, j) - 1
        return w * _WORD + _select_in_word(self._words[w], j - self._ranks[w])

    def select0(self, j):
        """Index of the (j+1)-th zero bit (0-indexed)."""
        zeros = self.n - self.ones
        if not 0 <= j < zeros:
            raise OutOfRange("select0 argument %d out of range" % j)
        w = bisect_right(range(len(self._words)), j,
                         key=lambda m: m * _WORD - self._ranks[m]) - 1
        pos = w * _WORD
        # the word's zeros as one bits, none past n
        word = ~self._words[w] & ((1 << min(_WORD, self.n - pos)) - 1)
        return pos + _select_in_word(word, j - (pos - self._ranks[w]))

    def bit_string(self):
        """The bits as 0/1 text, bit 0 first, by one scan."""
        word = int.from_bytes(self.packed(), "little")
        return format(word, "b").zfill(self.n)[::-1] if self.n else ""


class PlcpBits:
    """Succinct PLCP representation: unary-coded differences plus select.

    ``shift`` records the rotation start used for circular inputs; it is
    zero for terminated strings.
    """

    def __init__(self, bits, n, shift=0):
        self.k = bits if isinstance(bits, RsBitVector) else RsBitVector(bits)
        self.n = n
        self.shift = shift % n if n else 0

    def decode(self, i):
        if not 0 <= i < self.n:
            raise OutOfRange("position %d out of range" % i)
        j = (i - self.shift) % self.n
        return self.k.select1(j) - 2 * j - 1

    def __getitem__(self, i):
        return self.decode(i)

    def decode_all(self):
        """Every value in one scan of K: the j-th one bit of K has z zeros
        before it, so value j before the shift is z - j - 1."""
        n, k, s = self.n, self.k, self.shift
        if k.ones < n:
            raise OutOfRange("%d values from %d one bits" % (n, k.ones))
        bits = format(int.from_bytes(k.packed(), "little"), "b").zfill(k.n)
        zeros = accumulate(map(len, bits[::-1].split("1")[:n]))
        vk = list(map(sub, zeros, range(1, n + 1)))
        return vk[n - s:] + vk[:n - s]

    def bit_string(self):
        return self.k.bit_string()

    def __len__(self):
        return self.n


def plcp_encode(plcp):
    """Encode a PLCP array as the unary difference bit vector."""
    values = list(plcp.values if hasattr(plcp, "values") else plcp)
    bits = []
    prev = -1
    for v in values:
        d = v + 1 if prev < 0 else v - prev + 1
        if d < 0:
            raise DiffBoundViolation("PLCP drops by more than one (%d after "
                                     "%d)" % (v, prev))
        bits.extend([0] * d)
        bits.append(1)
        prev = v
    return PlcpBits(bits, len(values), shift=0)


class WaveletTree:
    """Level-ordered wavelet tree over a symbol sequence."""

    def __init__(self, symbols, sigma):
        self.n = len(symbols)
        self.sigma = sigma
        self.nlevels = max(1, (sigma - 1).bit_length())
        cur = list(symbols)
        self.levels = []
        for lvl in range(self.nlevels):
            shift = self.nlevels - 1 - lvl
            self.levels.append(RsBitVector((c >> shift) & 1 for c in cur))
            if lvl + 1 < self.nlevels:
                # stable sort by the bit prefix keeps every node contiguous
                cur = sorted(cur, key=lambda c: c >> shift)

    def select(self, sym, j):
        """Index of the (j+1)-th occurrence of sym."""
        if not 0 <= sym < self.sigma:
            raise OutOfRange("symbol %d out of range" % sym)
        # record node ranges along the path, then walk back up
        ranges = []
        a, b = 0, self.n
        for lvl in range(self.nlevels):
            ranges.append((a, b))
            bits = self.levels[lvl]
            bit = (sym >> (self.nlevels - 1 - lvl)) & 1
            z_in = bits.rank0(b) - bits.rank0(a)
            a, b = (a + z_in, b) if bit else (a, a + z_in)
        if not 0 <= j < b - a:
            raise OutOfRange("select argument %d out of range" % j)
        pos = j
        for lvl in range(self.nlevels - 1, -1, -1):
            a, b = ranges[lvl]
            bits = self.levels[lvl]
            bit = (sym >> (self.nlevels - 1 - lvl)) & 1
            select, rank = ((bits.select1, bits.rank1) if bit
                            else (bits.select0, bits.rank0))
            pos = select(rank(a) + pos) - a
        return pos

    def interval_symbols(self, lo, hi):
        """Distinct symbols in [lo, hi) with rank at lo and interval count.

        Returns (sym, rank_at_lo, count) triples sorted by symbol; only
        nonempty child intervals are visited.
        """
        if not 0 <= lo <= hi <= self.n:
            raise OutOfRange("interval (%d, %d) out of range" % (lo, hi))
        out = []
        if lo == hi:
            return out

        def walk(lvl, a, b, l, r, prefix):
            if lvl == self.nlevels:
                out.append((prefix, l - a, r - l))
                return
            bits = self.levels[lvl]
            z_before = bits.rank0(a)
            z_in = bits.rank0(b) - z_before
            lz = bits.rank0(l) - z_before
            rz = bits.rank0(r) - z_before
            if rz > lz:
                walk(lvl + 1, a, a + z_in, a + lz, a + rz, prefix << 1)
            lo_ones = (l - a) - lz
            ro_ones = (r - a) - rz
            if ro_ones > lo_ones:
                walk(lvl + 1, a + z_in, b,
                     a + z_in + lo_ones, a + z_in + ro_ones, (prefix << 1) | 1)

        walk(0, 0, self.n, lo, hi, 0)
        return out
