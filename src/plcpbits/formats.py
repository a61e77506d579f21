"""Binary artifact files: transforms, ISA samples and PLCP bit vectors.

All artifacts share a fixed little-endian header (magic, version, flags,
length) followed by a type-specific extension.  Bits in the PLCP
artifact are packed least-significant-bit first.  Readers raise
FormatError for malformed files and HeaderMismatch when artifacts that
should describe the same text disagree.
"""

import os
import struct
import sys
from array import array

from .emlayer import PART, typecode
from .errors import FormatError, HeaderMismatch
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
    if n == 0:
        raise FormatError("%s: empty text" % path)
    return n, sigma, bool(flags & FLAG_CIRCULAR)


def _read_exact(fh, count, path):
    _expect_left(fh, count, path)
    return fh.read(count)


def _expect_left(fh, count, path):
    # checked against the file size first, so that a huge claimed length
    # ends here rather than in the allocation of its buffer
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise FormatError("%s: truncated payload" % path)


def _expect_end(fh, path):
    if fh.read(1):
        raise FormatError("%s: trailing bytes after the payload" % path)


def write_bwt(path, bwt):
    with open(path, "wb") as fh:
        _write_header(fh, MAGIC_BWT, bwt.n, bwt.sigma, bwt.circular)
        for chunk in bwt.stream().chunks():
            fh.write(chunk)


def read_bwt(path, factory=None):
    with open(path, "rb") as fh:
        n, sigma, circular = _read_header(fh, MAGIC_BWT, path)
        if not 1 <= sigma <= 256:
            raise FormatError("%s: alphabet size %d outside 1..256"
                              % (path, sigma))
        symbols = _read_exact(fh, n, path)
        _expect_end(fh, path)
        if max(symbols) >= sigma:
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
        _expect_left(fh, 8 * count, path)
        ranks = array(typecode(n - 1))
        while len(ranks) < count:  # PART at a time, never a whole copy
            piece = array("Q", fh.read(8 * min(PART, count - len(ranks))))
            if sys.byteorder == "big":
                piece.byteswap()
            if max(piece) >= n:
                raise FormatError("%s: sampled rank outside 0..n-1" % path)
            ranks.extend(array(ranks.typecode, piece))
        _expect_end(fh, path)
    if n * count > 1 << 64:
        raise FormatError("%s: n times the sample count exceeds 2**64" % path)
    # repeats are met in the walk's cursors, sorted once, not marked in a
    # set or in n bytes: the header's n is not bounded by the file's size
    sisa = SampledIsa(rate=rate, n=n, ranks=ranks)
    if sisa.repeated():
        raise FormatError("%s: repeated sampled rank" % path)
    return sisa, sigma, circular


def write_plcp(path, plcp, sigma, circular=False):
    n = plcp.n
    with open(path, "wb") as fh:
        _write_header(fh, MAGIC_K, n, sigma, circular)
        fh.write(struct.pack("<Q", plcp.shift))
        fh.write(plcp.k.packed())


def read_plcp(path):
    with open(path, "rb") as fh:
        n, sigma, circular = _read_header(fh, MAGIC_K, path)
        (shift,) = struct.unpack("<Q", _read_exact(fh, 8, path))
        if shift and shift >= n:
            raise FormatError("%s: shift %d outside 0..n-1" % (path, shift))
        if shift and not circular:
            raise FormatError("%s: shift %d on a linear text" % (path, shift))
        raw = _read_exact(fh, (2 * n + 7) // 8, path)
        _expect_end(fh, path)
    bits = RsBitVector.from_packed(raw, 2 * n)
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
