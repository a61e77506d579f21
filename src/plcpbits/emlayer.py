"""Simulated external memory.

Streams are append-once, read-sequentially containers of unsigned
integers in chunks of one format, ``bytes`` or a typed ``array``: items
gathered in a list become the narrowest array that holds them
(``typecode``).  A *bit stream*, made by ``StreamFactory.bits``, holds
one mark per rank, each chunk packed into one integer (bit 0 its first
rank) and stored as bytes; counts can be held as their bit planes, plane
j the packed word of every count's bit j (``from_planes`` reads them).
Tests run streams in memory; the CLI runs them over temporary files,
each chunk's raw bytes after the other.
Either way the only operations offered are sequential, so a compliant
algorithm cannot accidentally perform random access: the one escape
hatch (``seek``) is counted and asserted zero after every run.
Rewinds between passes are counted separately.

One rule keeps small output off the backing store: items that fit one
buffer are handed on in memory, wrapped as a finished stream
(``StreamFactory.from_items``); more go to a new stream.
"""

import os
import shutil
import tempfile
from array import array
from bisect import bisect_right
from collections import deque
from itertools import chain, islice, repeat
from operator import add, lshift

from .errors import StreamStateError

# Default stream buffer capacity, in items.  Buffers up to this size are
# considered I/O buffers and are excluded from resident-memory accounting.
STREAM_BUFFER_ITEMS = 65536
PART = 1024  # ints that ``EmStream.extend`` reads at a time, as "Q"


def typecode(top):
    """The narrowest unsigned array type that holds ``top``."""
    return next(t for t in "BHIQ" if top < 1 << 8 * array(t).itemsize)


def sorted_array(items, code):
    """``items`` ascending, one typed array of type ``code``: sorted ``PART``
    at a time into arrays, then merged up to eight at a time, so no list of
    more than ``PART`` of them exists (of distinct items; see ``_merge``)."""
    items, runs = iter(items), deque()
    while piece := sorted(islice(items, PART)):
        runs.append(array(code, piece))
        del piece  # not alive while the next is made
    while len(runs) > 1:
        runs.append(_merge([runs.popleft() for _ in range(min(8, len(runs)))]))
    return runs.pop() if runs else array(code)


def _merge(runs):
    """Ascending arrays as one, by ``sorted`` over a block at a time: from
    each run, its items up to the least of the runs' next ``PART // 2 //
    len(runs)``, so the C sort does the per-item work."""
    out, step = array(runs[0].typecode), PART // 2 // len(runs)
    runs = [(run, 0) for run in runs]
    while len(runs) > 1:
        top = min(run[min(i + step, len(run)) - 1] for run, i in runs)
        runs = [(run, i, bisect_right(run, top, i)) for run, i in runs]
        out.extend(sorted(chain.from_iterable(run[i:end]
                                              for run, i, end in runs)))
        runs = [(run, end) for run, _, end in runs if end < len(run)]
    for run, i in runs:
        out += run[i:]
    return out


# 0/1 bytes to the ASCII digits of int(..., 2), and format(..., "b")'s
# digits back to 0/1 bytes
_DIGITS = b"0" + b"1" * 255
_BITS = bytes(c == ord("1") for c in range(256))


def pack(marks):
    """0/1 bytes as one integer whose bit i is the mark of byte i."""
    return int(marks.translate(_DIGITS)[::-1], 2) if marks else 0


def unpack(word, width):
    """The low ``width`` bits of ``word`` as 0/1 bytes, bit 0 first."""
    if not width:
        return b""
    return format(word, "b").zfill(width)[::-1].encode().translate(_BITS)


def spread(word, ones):
    """A packed word as a big integer of one byte per rank, 0 or 1: its
    binary digits read as bytes, the most significant first, and their
    low bits kept by ``ones``, a 1 in every byte up to its width."""
    return int.from_bytes(format(word, "b").encode(), "big") & ones


def from_planes(planes, size):
    """The ``size`` counts of bit planes, as the narrowest typed array: up
    to 8 planes spread to one byte per rank and summed, Σ spread(p_j)
    << j; more, element-wise."""
    if len(planes) <= 8:
        ones = int.from_bytes(b"\x01" * size, "little")
        return array("B", sum(spread(p, ones) << j for j, p in
                              enumerate(planes)).to_bytes(size, "little"))
    counts = repeat(0, size)
    for j, p in enumerate(planes):
        counts = map(add, counts, map(lshift, unpack(p, size), repeat(j)))
    return array(typecode((1 << len(planes)) - 1), counts)


class MemoryMeter:
    """High-water marks of internal-memory container sizes, per owner."""

    def __init__(self):
        self.peaks = {}

    def note(self, owner, size):
        if size > self.peaks.get(owner, -1):
            self.peaks[owner] = size

    def peak(self, owner):
        return self.peaks.get(owner, 0)


class _MemoryBackend:
    """The chunks a stream is given, kept as they are; or one wrapped
    sequence, cut up as it is read."""

    def __init__(self, data=None):
        self.pieces = [] if data is None else [data]

    def append_chunk(self, chunk):
        self.pieces.append(chunk)

    def chunks(self, start, capacity):
        for piece in self.pieces:
            if not start and len(piece) <= capacity:
                yield piece
                continue
            for i in range(start, len(piece), capacity):
                yield piece[i : i + capacity]
            start = max(0, start - len(piece))

    def __len__(self):
        return sum(map(len, self.pieces))

    def codes(self):
        return (getattr(piece, "typecode", "B") for piece in self.pieces)

    def dispose(self):
        self.pieces = []


class _FileBackend:
    """Chunk file: each chunk's raw bytes, ``itemsize * len`` of them,
    one after the other.

    Each chunk's end offset is kept with its array type (None for
    bytes); a read takes one chunk's bytes by one ``os.pread`` and
    rebuilds the array from them.  The file is open only while a chunk
    is written or read, as a raw descriptor, so the many bucket and
    block streams of an LF pass hold no file buffers while they fill,
    and a suspended reader holds no file: a walk reads all its passes'
    streams side by side, more of them than a process may open.  A
    disposed file is emptied and put on ``spares``, the factory's list,
    and the next new stream renames it rather than creating a file: on
    an ext4 virtual disk, creating one took 0.2-0.8 ms and renaming it
    0.03 ms.  Opening it empty once more keeps ext4 from writing the new
    stream's data to disk at its next close, as it does after a
    truncation.
    """

    def __init__(self, path, spares):
        self.path = path
        self._spares = spares
        if spares:
            os.replace(spares.pop(), path)
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))
        self._count = 0
        self._index = [(0, None)]  # per chunk: the offset it ends at, its type

    def append_chunk(self, chunk):
        data = memoryview(chunk).cast("B")
        end = self._index[-1][0] + len(data)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        self._index.append((end, getattr(chunk, "typecode", None)))
        self._count += len(chunk)

    def chunks(self, start, capacity):
        first, skip = divmod(start, capacity)
        index = self._index[first:]
        for (lo, _), (hi, code) in zip(index, index[1:]):
            fd = os.open(self.path, os.O_RDONLY)
            try:
                chunk = os.pread(fd, hi - lo, lo)
            finally:
                os.close(fd)
            chunk = array(code, chunk) if code else chunk
            yield chunk[skip:] if skip else chunk
            skip = 0

    def __len__(self):
        return self._count

    def codes(self):
        return (code or "B" for _, code in self._index[1:])

    def dispose(self):
        if self.path:
            os.truncate(self.path, 0)
            self._spares.append(self.path)
            self.path = None


class EmStream:
    """A write-once stream of unsigned integers, or of bytes, with
    sequential access only."""

    def __init__(self, backend, name="", capacity=STREAM_BUFFER_ITEMS):
        self._backend = backend
        self.name = name
        self.capacity = capacity
        self.bits = False  # set by StreamFactory.bits
        self._writable = True
        self._buffer = None  # unflushed: a list, a bytearray or a held chunk
        # a bit stream's ranks not yet flushed, as one word, and the ranks
        # its backend holds
        self._word = self._width = self._packed = 0
        self._pos = 0
        self.rewinds = 0
        self.non_sequential = 0

    # -- writing ---------------------------------------------------------
    #
    # The backend receives chunks of exactly ``capacity`` items (the last
    # one may be shorter), so streams of equal length and capacity can be
    # read side by side chunk by chunk.  A chunk is ``bytes`` or an
    # ``array``: a list becomes the narrowest array that holds its items.

    def _put(self, chunk):
        if isinstance(chunk, bytearray):
            chunk = bytes(chunk)
        elif not isinstance(chunk, (bytes, array)):
            chunk = array(typecode(max(chunk)), chunk)
        self._backend.append_chunk(chunk)

    def _own(self):
        """The write buffer as a list, or a bytearray if it holds bytes."""
        buf = self._buffer
        if not isinstance(buf, (list, bytearray)):
            kind = bytearray if isinstance(buf, bytes) else list
            buf = self._buffer = kind(buf or ())
        return buf

    def append(self, item):
        buf = self._buffer if type(self._buffer) is list else self._own()
        buf.append(item)
        if len(buf) >= self.capacity:
            self._put(buf)
            self._buffer = buf[:0]

    def append_chunk(self, chunk):
        if self.bits:
            self.append_word(pack(chunk), len(chunk))
            return
        if self._buffer:
            self._own().extend(chunk)
            chunk = self._buffer
        cap, size = self.capacity, len(chunk)
        full = size - size % cap
        for i in range(0, full, cap):
            self._put(chunk[i : i + cap] if size > cap else chunk)
        if full or chunk is not self._buffer:
            self._buffer = chunk[full:]  # held as it is until more comes

    def append_whole(self, chunk):
        """Append ``chunk`` as one chunk, neither cut nor merged, for a
        stream whose chunks differ in length: ``chunks()`` yields it whole
        while it is no longer than the capacity."""
        self._put(chunk)

    def append_word(self, word, width):
        """Append ``width`` ranks to a bit stream: bit i of ``word`` is the
        mark of the i-th."""
        if self._width:
            word, width = self._word | word << self._width, self._width + width
        cap = self.capacity
        while width >= cap:
            self._put_word(word & ((1 << cap) - 1) if width > cap else word,
                           cap)
            word >>= cap
            width -= cap
        self._word, self._width = word, width

    def _put_word(self, word, width):
        self._backend.append_chunk(word.to_bytes((width + 7) >> 3, "little"))
        self._packed += width

    def extend(self, items):
        """Append ints a buffer at a time, read ``PART`` at a time into "Q"
        and narrowed as they come, so each chunk is the narrowest array
        that holds its items, whatever type they came in."""
        items, cap, chunk = iter(items), self.capacity, array("B")
        while part := array("Q", islice(items, min(PART, cap - len(chunk)))):
            code = max(chunk.typecode, typecode(max(part)))  # "B" < ... < "Q"
            chunk = array(code, chunk) if code > chunk.typecode else chunk
            chunk.extend(array(code, part))
            if len(chunk) == cap:
                self.append_chunk(chunk)
                chunk = array("B")
        if chunk:
            self.append_chunk(chunk)

    def finish(self):
        """Seal the stream and position the read cursor at the start."""
        if self._writable:
            if self._buffer:
                self._put(self._buffer)
            if self._width:
                self._put_word(self._word, self._width)
            self._buffer = None
            self._word = self._width = 0
            self._writable = False
            self._pos = 0
        return self

    # -- reading ---------------------------------------------------------

    def _check_finished(self, action):
        if self._writable:
            raise StreamStateError(
                "cannot %s stream %r before finish()" % (action, self.name)
            )

    def rewind(self):
        self._check_finished("rewind")
        self.rewinds += 1
        self._pos = 0
        return self

    def seek(self, pos):
        # Non-sequential access; compliant algorithms never call this.
        self._check_finished("seek in")
        self.non_sequential += 1
        self._pos = pos

    def chunks(self):
        """Yield buffered chunks from the cursor to the end; a bit stream's
        as 0/1 bytes."""
        self._check_finished("read")
        if self.bits:
            for word, width in self.words():
                yield unpack(word, width)
            return
        for chunk in self._backend.chunks(self._pos, self.capacity):
            self._pos += len(chunk)
            yield chunk

    def words(self):
        """Yield a bit stream's chunks from the cursor to the end, each as
        a pair (word, width): bit i of word is the mark of its i-th rank."""
        self._check_finished("read")
        cap = self.capacity
        size = (cap + 7) >> 3
        first, skip = divmod(self._pos, cap)
        for chunk in self._backend.chunks(first * size, size):
            width = min(cap - skip, self._packed - self._pos)
            self._pos += width
            yield int.from_bytes(chunk, "little") >> skip, width
            skip = 0

    def items(self):
        """The items from the cursor to the end, flattened from
        ``chunks`` without a Python step per item."""
        return chain.from_iterable(self.chunks())

    def __iter__(self):
        return self.items()

    def __len__(self):
        if self.bits:
            return self._packed + self._width
        return len(self._backend) + len(self._buffer or ())

    def widest(self):
        """The widest type of its chunks, "B" for bytes: an array of that
        type holds every item it has handed to its backend."""
        return max(self._backend.codes(), default="B")

    def dispose(self):
        self._backend.dispose()


class StreamFactory:
    """Creates streams over one backing store (memory or a temp dir).

    Its accounting covers the streams it creates and the in-memory data it
    wraps, such as a BWT held as bytes: wrapped data is borrowed, so it is
    counted but never part of ``streams``.
    """

    def __init__(self, directory=None, capacity=STREAM_BUFFER_ITEMS,
                 meter=None, keep_temp=False):
        self.directory = directory
        self.capacity = capacity
        self.meter = meter if meter is not None else MemoryMeter()
        self.keep_temp = keep_temp
        self.streams = []
        self._borrowed = []
        self._counter = 0
        # accounting of released streams, so that releasing hides nothing
        self._released_rewinds = 0
        self._released_non_sequential = 0
        self._owns_dir = False
        self._spares = []   # emptied files of released streams

    @classmethod
    def tempdir(cls, capacity=STREAM_BUFFER_ITEMS, meter=None, keep_temp=False,
                prefix="plcp-run-"):
        factory = cls(tempfile.mkdtemp(prefix=prefix), capacity, meter, keep_temp)
        factory._owns_dir = True
        return factory

    def stream(self, name="tmp", capacity=None):
        """A new writable stream, cut into chunks of ``capacity`` items
        (default: the factory's)."""
        self._counter += 1
        if self.directory is None:
            backend = _MemoryBackend()
        else:
            path = os.path.join(self.directory, "%s-%06d" % (name, self._counter))
            backend = _FileBackend(path, self._spares)
        s = EmStream(backend, name=name, capacity=capacity or self.capacity)
        self.streams.append(s)
        return s

    def bits(self, name="marks", capacity=None):
        """A new writable bit stream: one mark per rank, 8 ranks a byte."""
        s = self.stream(name, capacity)
        s.bits = True
        return s

    def wrap(self, data, name="wrapped"):
        """Expose an existing in-memory sequence as a finished stream."""
        s = EmStream(_MemoryBackend(data), name=name, capacity=self.capacity)
        s._writable = False
        self._borrowed.append(s)
        return s

    def from_items(self, items, name="tmp"):
        """A finished stream of ``items``.  Items that fit one buffer are
        handed on in memory, wrapped as a typed array: an array as it is,
        others in the narrowest that holds them; more go to a new stream,
        by ``EmStream.extend``, the first buffer read as one "Q" array."""
        if isinstance(items, array) and len(items) <= self.capacity:
            return self.wrap(items, name)
        items = iter(items)
        head = array("Q", islice(items, self.capacity + 1))
        if len(head) <= self.capacity:
            return self.wrap(array(typecode(max(head, default=0)), head), name)
        s = self.stream(name)
        s.extend(chain(head, items))
        return s.finish()

    # -- accounting ------------------------------------------------------

    def total_non_sequential(self):
        return self._released_non_sequential + sum(
            s.non_sequential for s in self.streams + self._borrowed)

    def max_rewinds(self):
        return max([self._released_rewinds] +
                   [s.rewinds for s in self.streams + self._borrowed])

    def release(self, *streams):
        """Dispose of streams, skipping None (a stream never made)."""
        for s in streams:
            if s is None:
                continue
            for owned in (self.streams, self._borrowed):
                if s in owned:
                    owned.remove(s)
                    self._released_rewinds = max(self._released_rewinds,
                                                 s.rewinds)
                    self._released_non_sequential += s.non_sequential
            s.dispose()

    def cleanup(self):
        while self._spares:
            os.unlink(self._spares.pop())
        if self._owns_dir and not self.keep_temp and self.directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.cleanup()
        return False


def concat_buckets(buckets, factory, name, capacity=None):
    """One finished bit stream of the bit streams of a ``{key: stream}``
    dict, concatenated in key order and re-cut to ``capacity`` ranks a
    chunk; each bucket is released once copied."""
    out = factory.bits(name, capacity)
    for k in sorted(buckets):
        bucket = buckets.pop(k).finish()
        for word, width in bucket.words():
            out.append_word(word, width)
        factory.release(bucket)
    return out.finish()
