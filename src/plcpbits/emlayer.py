"""Simulated external memory.

Streams are append-once, read-sequentially containers of small records.
Tests run them over in-memory lists; the CLI runs them over temporary
files.  Either way the only operations offered are sequential, so a
compliant algorithm cannot accidentally perform random access: the one
escape hatch (``seek``) is counted and asserted zero after every run.
Rewinds between passes are counted separately.
"""

import os
import pickle
import shutil
import tempfile
from collections import Counter, defaultdict
from itertools import islice, repeat
from operator import itemgetter

from .errors import AlphabetTooLarge, LengthMismatch, StreamStateError

# Default stream buffer capacity, in items.  Buffers up to this size are
# considered I/O buffers and are excluded from resident-memory accounting.
STREAM_BUFFER_ITEMS = 65536


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
    def __init__(self, data=None):
        self.data = [] if data is None else data

    def append_chunk(self, chunk):
        self.data.extend(chunk)

    def finish_write(self):
        pass

    def chunks(self, start, capacity):
        data = self.data
        for i in range(start, len(data), capacity):
            yield data[i : i + capacity]

    def __len__(self):
        return len(self.data)

    def dispose(self):
        self.data = None


class _FileBackend:
    """Pickled chunk file.  Each chunk is one pickle frame."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "wb")
        self._count = 0

    def append_chunk(self, chunk):
        pickle.dump(chunk, self._fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._count += len(chunk)

    def finish_write(self):
        self._fh.close()
        self._fh = None

    def chunks(self, start, capacity):
        skip = start
        with open(self.path, "rb") as fh:
            while True:
                try:
                    chunk = pickle.load(fh)
                except EOFError:
                    return
                if skip:
                    if skip >= len(chunk):
                        skip -= len(chunk)
                        continue
                    chunk = chunk[skip:]
                    skip = 0
                yield chunk

    def __len__(self):
        return self._count

    def dispose(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if os.path.exists(self.path):
            os.unlink(self.path)


class EmStream:
    """A write-once stream of records with sequential access only."""

    def __init__(self, backend, name="", capacity=STREAM_BUFFER_ITEMS):
        self._backend = backend
        self.name = name
        self.capacity = capacity
        self._writable = True
        self._buffer = []
        self._pos = 0
        self.rewinds = 0
        self.non_sequential = 0

    # -- writing ---------------------------------------------------------

    def append(self, item):
        buf = self._buffer
        buf.append(item)
        if len(buf) >= self.capacity:
            self._backend.append_chunk(buf)
            self._buffer = []

    def append_chunk(self, chunk):
        if len(self._buffer) + len(chunk) <= self.capacity:
            self._buffer.extend(chunk)
        else:
            if self._buffer:
                self._backend.append_chunk(self._buffer)
                self._buffer = []
            self._backend.append_chunk(chunk)

    def extend(self, items):
        it = iter(items)
        while True:
            chunk = list(islice(it, self.capacity))
            if not chunk:
                break
            self.append_chunk(chunk)

    def finish(self):
        """Seal the stream and position the read cursor at the start."""
        if self._writable:
            if self._buffer:
                self._backend.append_chunk(self._buffer)
                self._buffer = []
            self._backend.finish_write()
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
        """Yield buffered chunks from the cursor to the end."""
        self._check_finished("read")
        for chunk in self._backend.chunks(self._pos, self.capacity):
            self._pos += len(chunk)
            yield chunk

    def items(self):
        for chunk in self.chunks():
            yield from chunk

    def __iter__(self):
        return self.items()

    def __len__(self):
        return len(self._backend) + len(self._buffer)

    def dispose(self):
        self._backend.dispose()


class StreamFactory:
    """Creates streams over one backing store (memory or a temp dir)."""

    def __init__(self, directory=None, capacity=STREAM_BUFFER_ITEMS,
                 meter=None, keep_temp=False):
        self.directory = directory
        self.capacity = capacity
        self.meter = meter if meter is not None else MemoryMeter()
        self.keep_temp = keep_temp
        self.streams = []
        self._counter = 0
        # accounting of released streams, so that releasing hides nothing
        self._released_rewinds = 0
        self._released_non_sequential = 0
        self._owns_dir = False

    @classmethod
    def tempdir(cls, capacity=STREAM_BUFFER_ITEMS, meter=None, keep_temp=False,
                prefix="plcp-run-"):
        factory = cls(tempfile.mkdtemp(prefix=prefix), capacity, meter, keep_temp)
        factory._owns_dir = True
        return factory

    def stream(self, name="tmp"):
        self._counter += 1
        if self.directory is None:
            backend = _MemoryBackend()
        else:
            path = os.path.join(self.directory, "%s-%06d" % (name, self._counter))
            backend = _FileBackend(path)
        s = EmStream(backend, name=name, capacity=self.capacity)
        self.streams.append(s)
        return s

    def wrap(self, data, name="wrapped"):
        """Expose an existing in-memory sequence as a finished stream."""
        s = EmStream(_MemoryBackend(data), name=name, capacity=self.capacity)
        s._writable = False
        self.streams.append(s)
        return s

    def from_items(self, items, name="tmp"):
        s = self.stream(name)
        s.extend(items)
        return s.finish()

    def zeros(self, count, name="bits"):
        return self.from_items(repeat(0, count), name)

    # -- accounting ------------------------------------------------------

    def total_non_sequential(self):
        return self._released_non_sequential + sum(
            s.non_sequential for s in self.streams)

    def max_rewinds(self):
        return max([self._released_rewinds] + [s.rewinds for s in self.streams])

    def release(self, *streams):
        for s in streams:
            if s in self.streams:
                self.streams.remove(s)
                self._released_rewinds = max(self._released_rewinds, s.rewinds)
                self._released_non_sequential += s.non_sequential
            s.dispose()

    def cleanup(self):
        if self._owns_dir and not self.keep_temp and self.directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.cleanup()
        return False


# A bucket pass distributes by one 8-bit digit, into at most 2**8 buckets.
DIGIT_BITS = 8
BUCKETS = 1 << DIGIT_BITS


def _key_bits(sigma):
    return max(1, (sigma - 1).bit_length())


def _bucket_pass(src, key, factory):
    """One stable bucket pass: the items of ``src`` grouped by ``key(item)``.

    Keys lie below BUCKETS.  Each chunk is split into per-key lists, which
    are appended to one stream per key and dropped before the next chunk
    is read; the key streams are then concatenated in key order.
    """
    buckets = {}
    for chunk in src.chunks():
        parts = defaultdict(list)
        for item in chunk:
            parts[key(item)].append(item)
        for k, part in parts.items():
            if k not in buckets:
                buckets[k] = factory.stream("bucket")
            buckets[k].append_chunk(part)
        del parts
    out = factory.stream("sorted")
    for k in sorted(buckets):
        bucket = buckets.pop(k).finish()
        for chunk in bucket.chunks():
            out.append_chunk(chunk)
        factory.release(bucket)
    return out.finish()


def em_lsd_sort(stream, key_index, key_bits, factory):
    """Stable LSD radix sort of tuple records by an integer component.

    One bucket pass per 8-bit digit of the key, least significant first.
    """
    key = itemgetter(key_index)
    stream.rewind()
    cur = stream
    for shift in range(0, max(1, key_bits), DIGIT_BITS):
        if key_bits <= DIGIT_BITS:
            digit = key
        else:
            def digit(item, shift=shift):
                return key(item) >> shift & (BUCKETS - 1)
        nxt = _bucket_pass(cur, digit, factory)
        if cur is not stream:
            factory.release(cur)
        cur = nxt
    return cur


def em_stable_sort_by_symbol(pairs, sigma, factory):
    """Stable sort of a stream of (sym, payload) records by symbol.

    Up to BUCKETS symbols this is a single bucket pass: one sequential
    read of ``pairs`` plus one write and one read of every record.
    """
    return em_lsd_sort(pairs, 0, _key_bits(sigma), factory)


def inverse_radix_sort(keys, sorted_data, sigma, factory):
    """Inverse of em_stable_sort_by_symbol on the payload sequence.

    ``keys`` are the symbols in original order; ``sorted_data`` is any data
    stream ordered as if it had been carried through the forward sort.
    The sorted data is cut into one run per symbol, sized by counting the
    keys, and the runs are merged back by re-reading the keys.
    """
    if sigma > BUCKETS:
        raise AlphabetTooLarge(
            "one run per symbol caps the inverse sort at %d symbols" % BUCKETS
        )
    if len(keys) != len(sorted_data):
        raise LengthMismatch(
            "keys has %d items, data has %d" % (len(keys), len(sorted_data))
        )
    sizes = Counter()
    for chunk in keys.rewind().chunks():
        sizes.update(chunk)
    runs = [None] * sigma
    order = iter(sorted(sizes.items()))
    left = 0
    for chunk in sorted_data.rewind().chunks():
        start = 0
        while start < len(chunk):
            if not left:
                sym, left = next(order)
                runs[sym] = factory.stream("run")
            take = min(left, len(chunk) - start)
            runs[sym].append_chunk(chunk[start : start + take])
            start += take
            left -= take
    heads = [None if run is None else run.finish().items() for run in runs]
    out = factory.stream("unsorted")
    for chunk in keys.rewind().chunks():
        out.append_chunk([next(heads[k]) for k in chunk])
    factory.release(*(run for run in runs if run is not None))
    return out.finish()


def bin_un_bucket_sort(keys, sorted_data, factory):
    """Restore the pre-sort order of ``sorted_data`` from its binary keys.

    ``sorted_data`` must be the stable binary bucket sort of some original
    sequence, ``keys`` the key bits in original order.
    """
    return inverse_radix_sort(keys, sorted_data, 2, factory)


def iter_items(seq):
    """Items of a finished stream from its start, or of any other iterable."""
    return seq.rewind().items() if hasattr(seq, "rewind") else iter(seq)
