"""Binary artifact files: transforms, ISA samples and PLCP bit vectors.

All artifacts share a fixed little-endian header (magic, version, flags,
length) followed by a type-specific extension.  Bits in the PLCP
artifact are packed least-significant-bit first.  Readers raise
FormatError for malformed files and HeaderMismatch when artifacts that
should describe the same text disagree.
"""

import struct

from .errors import AlphabetTooLarge, FormatError, HeaderMismatch
from .succinct import PlcpBits, RsBitVector
from .textcore import Bwt, SampledIsa

MAGIC_BWT = b"PLCPBWT1"
MAGIC_ISA = b"PLCPISA1"
MAGIC_K = b"PLCPK__1"
VERSION = 1
FLAG_CIRCULAR = 1

_HEADER = struct.Struct("<8sHHQI")


def _write_header(fh, magic, n, sigma, circular):
    flags = FLAG_CIRCULAR if circular else 0
    fh.write(_HEADER.pack(magic, VERSION, flags, n, sigma))


def _read_header(fh, magic, path):
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise FormatError("%s: truncated header" % path)
    got_magic, version, flags, n, sigma = _HEADER.unpack(raw)
    if got_magic != magic:
        raise FormatError(
            "%s: bad magic %r (expected %r)" % (path, got_magic, magic)
        )
    if version != VERSION:
        raise FormatError("%s: unsupported version %d" % (path, version))
    return n, sigma, bool(flags & FLAG_CIRCULAR)


def _read_exact(fh, count, path):
    raw = fh.read(count)
    if len(raw) != count:
        raise FormatError("%s: truncated payload" % path)
    return raw


def _expect_end(fh, path):
    if fh.read(1):
        raise FormatError("%s: trailing bytes after the payload" % path)


def write_bwt(path, bwt):
    if bwt.sigma > 256:
        raise AlphabetTooLarge("one byte per symbol caps sigma at 256")
    with open(path, "wb") as fh:
        _write_header(fh, MAGIC_BWT, bwt.n, bwt.sigma, bwt.circular)
        for chunk in bwt.stream().chunks():
            fh.write(bytes(chunk))


def read_bwt(path, factory=None):
    with open(path, "rb") as fh:
        n, sigma, circular = _read_header(fh, MAGIC_BWT, path)
        symbols = list(_read_exact(fh, n, path))
        _expect_end(fh, path)
        if any(c >= sigma for c in symbols):
            raise FormatError("%s: symbol outside alphabet" % path)
    return Bwt(symbols, sigma, circular=circular, factory=factory)


def write_sisa(path, sisa, sigma, circular=False):
    with open(path, "wb") as fh:
        _write_header(fh, MAGIC_ISA, sisa.n, sigma, circular)
        fh.write(struct.pack("<I", sisa.rate))
        fh.write(struct.pack("<%dQ" % len(sisa.ranks), *sisa.ranks))


def read_sisa(path):
    with open(path, "rb") as fh:
        n, sigma, circular = _read_header(fh, MAGIC_ISA, path)
        (rate,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if rate < 1:
            raise FormatError("%s: zero sampling rate" % path)
        count = -(-n // rate)
        ranks = struct.unpack("<%dQ" % count, _read_exact(fh, 8 * count, path))
        _expect_end(fh, path)
    if any(r >= n for r in ranks):
        raise FormatError("%s: sampled rank outside 0..n-1" % path)
    if len(set(ranks)) != len(ranks):
        raise FormatError("%s: repeated sampled rank" % path)
    return SampledIsa(rate=rate, n=n, ranks=ranks), sigma, circular


def write_plcp(path, plcp, sigma, circular=False):
    n = plcp.n
    with open(path, "wb") as fh:
        _write_header(fh, MAGIC_K, n, sigma, circular)
        fh.write(struct.pack("<Q", plcp.shift))
        buf = bytearray((2 * n + 7) // 8)
        for i in range(2 * n):
            if plcp.k.get(i):
                buf[i // 8] |= 1 << (i % 8)
        fh.write(buf)


def read_plcp(path):
    with open(path, "rb") as fh:
        n, sigma, circular = _read_header(fh, MAGIC_K, path)
        (shift,) = struct.unpack("<Q", _read_exact(fh, 8, path))
        if shift and shift >= n:
            raise FormatError("%s: shift %d outside 0..n-1" % (path, shift))
        raw = _read_exact(fh, (2 * n + 7) // 8, path)
        _expect_end(fh, path)
    bits = RsBitVector(
        (raw[i // 8] >> (i % 8)) & 1 for i in range(2 * n)
    )
    if bits.ones != n:
        raise FormatError(
            "%s: expected %d one bits, found %d" % (path, n, bits.ones)
        )
    return PlcpBits(bits, n, shift=shift), sigma, circular


def check_same_text(n_a, circ_a, n_b, circ_b, what):
    if n_a != n_b:
        raise HeaderMismatch("%s: lengths differ (%d vs %d)" % (what, n_a, n_b))
    if circ_a != circ_b:
        raise HeaderMismatch("%s: circular flags differ" % what)
