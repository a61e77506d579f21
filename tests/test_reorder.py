import os
import tracemalloc
from array import array
from collections import Counter
from math import ceil

import pytest

from conftest import abbab, banana, make_fixture, random_text
from oracle_rounds import pd_from_counts, reorder_pd, run_rounds_internal
from plcpbits import (Bwt, StreamFactory, build_plcp, emlayer,
                      reconstruct_text, reorder)
from plcpbits.emlayer import STREAM_BUFFER_ITEMS
from plcpbits.errors import (AlphabetTooLarge, FormatError, OutOfRange,
                             RateMismatch)
from plcpbits.hybrid import hybrid_pd
from plcpbits.reorder import (_lf_directory, _lf_pass, annotate_positions,
                              emit_k, position_counts)
from plcpbits.rounds import PIECE, run_rounds_external
from plcpbits.textcore import SampledIsa


def test_banana_reorder():
    fx = banana()
    pd = run_rounds_internal(fx.bwt).pd
    k = reorder_pd(pd, fx.bwt, fx.sisa(3))
    assert k.bit_string() == "01000011110101"
    assert k.shift == 0


def test_reorder_rate_one():
    fx = banana()
    pd = run_rounds_internal(fx.bwt).pd
    assert reorder_pd(pd, fx.bwt, fx.sisa(1)).bit_string() == \
        "01000011110101"


def test_circular_position_counts():
    fx = abbab()
    pd = run_rounds_internal(fx.bwt).pd
    f = StreamFactory()
    counts = list(position_counts(pd, fx.bwt, fx.sisa(1), f))
    assert counts == [0, 0, 0, 1, 4]
    # rotation anchored right after a zero-PLCP position, the counts read
    # once, from any iterable
    assert emit_k(iter(counts), 5, shift=4).bit_string() == "0000111101"
    assert emit_k(f.wrap(counts), 5, shift=3).bit_string() == "0100001111"


def test_reorder_matches_oracle_across_rates(rng):
    for _ in range(25):
        n = rng.randrange(2, 120)
        sigma = rng.choice([2, 4, 16])
        fx = make_fixture(random_text(rng, n, sigma), sigma)
        f = StreamFactory()
        for rate in {1, 2, max(1, n.bit_length()), n}:
            pd = run_rounds_external(fx.bwt, f).pd  # a walk releases its PD
            k = emit_k(position_counts(pd, fx.bwt, fx.sisa(rate), f), n)
            assert k.bit_string() == fx.k_bits(), (n, sigma, rate)
        assert f.total_non_sequential() == 0


def test_rate_mismatch():
    fx = banana()
    pd = run_rounds_internal(fx.bwt).pd
    with pytest.raises(RateMismatch):
        reorder_pd(pd, fx.bwt, SampledIsa(rate=3, n=7, ranks=(4,)))


def test_reconstruct_banana():
    fx = banana()
    assert reconstruct_text(fx.bwt, fx.sisa(3)) == [2, 1, 3, 1, 3, 1, 0]
    # rate n: a single chain, plain BWT inversion
    assert reconstruct_text(fx.bwt, fx.sisa(7)) == [2, 1, 3, 1, 3, 1, 0]


def test_reconstruct_circular():
    fx = abbab()
    assert reconstruct_text(fx.bwt, fx.sisa(1)) == [0, 1, 1, 0, 1]


def test_reconstruct_random(rng):
    for _ in range(25):
        n = rng.randrange(2, 100)
        sigma = rng.choice([2, 4, 16])
        fx = make_fixture(random_text(rng, n, sigma), sigma)
        for rate in {1, 3, max(1, n.bit_length()), n}:
            got = reconstruct_text(fx.bwt, fx.sisa(rate))
            assert got == list(fx.text.symbols), (n, sigma, rate)


def test_walks_match_oracle_at_every_rate(tmp_path, rng):
    texts = [banana(), abbab(),
             make_fixture([1, 2, 1, 2, 1, 2, 1, 0], 3),
             make_fixture([0, 1, 1, 0, 2, 1, 1, 0, 2], 3, circular=True)]
    texts += [make_fixture(random_text(rng, n, 4), 4) for n in (2, 5, 11)]
    for i, fx in enumerate(texts):
        n = fx.n
        counts = run_rounds_internal(fx.bwt).pd.counts()
        # a circular K starts right after a position of PLCP zero
        shift = (fx.sa[0] + 1) % n if fx.text.circular else 0
        for capacity in (1, 3, STREAM_BUFFER_ITEMS):
            # one temp directory per file-backed factory
            for directory in (None, tmp_path / ("%d-%d" % (i, capacity))):
                if directory:
                    directory.mkdir()
                    directory = str(directory)
                f = StreamFactory(directory, capacity=capacity)
                for rate in range(1, n + 3):
                    sisa = fx.sisa(rate)
                    case = (list(fx.text.symbols), capacity, directory, rate)
                    k = reorder_pd(pd_from_counts(counts), fx.bwt, sisa,
                                   factory=f, shift=shift)
                    assert k.decode_all() == list(fx.plcp.values), case
                    assert reconstruct_text(fx.bwt, sisa, f) == \
                        list(fx.text.symbols), case
                    got = annotate_positions(fx.bwt, sisa, range(n), f)
                    assert got == dict(enumerate(fx.sa)), case
                assert f.streams == [] and f.total_non_sequential() == 0


def test_text_walk_finds_positions(tmp_path, rng):
    texts = [banana(), abbab(),
             make_fixture([0, 1, 1, 0, 2, 1, 1, 0, 2], 3, circular=True)]
    texts += [make_fixture(random_text(rng, n, 4), 4) for n in (2, 5, 11)]
    for i, fx in enumerate(texts):
        n = fx.n
        pd_counts = run_rounds_internal(fx.bwt).pd.counts()
        for capacity in (1, 3, STREAM_BUFFER_ITEMS):
            for directory in (None, tmp_path / ("%d-%d" % (i, capacity))):
                if directory:
                    directory.mkdir()
                    directory = str(directory)
                f = StreamFactory(directory, capacity=capacity)
                for rate in {1, 3, max(1, (n - 1).bit_length()), n + 2}:
                    case = (list(fx.text.symbols), capacity, directory, rate)
                    counts, text, keys, positions = position_counts(
                        pd_from_counts(pd_counts), fx.bwt, fx.sisa(rate), f,
                        find=range(n))
                    assert text == fx.text.symbols, case
                    assert dict(zip(keys, positions)) == \
                        dict(enumerate(fx.sa)), case
                    plain = position_counts(pd_from_counts(pd_counts),
                                            fx.bwt, fx.sisa(rate), f)
                    assert list(counts) == list(plain), case
                    f.release(counts)
                assert f.streams == [] and f.total_non_sequential() == 0
    fx = banana()
    pd = run_rounds_internal(fx.bwt).pd
    with pytest.raises(FormatError, match="misses rank 7"):
        position_counts(pd, fx.bwt, fx.sisa(3), find=[1, 7])


def _random_bwt(rng, n, sigma):
    """Any byte sequence over 0..sigma-1 has an LF mapping to check."""
    return Bwt(rng.randbytes(n).translate(bytes(c % sigma for c in range(256))),
               sigma)


@pytest.mark.parametrize("sigma", [1, 2, 5, 64, 255, 256])
def test_lf_pass_matches_per_rank_lf(tmp_path, rng, sigma):
    block = max(64, 4 * sigma)
    n = 2 * block + 37  # two full blocks and part of a third
    bwt = _random_bwt(rng, n, sigma)
    symbols = bwt.to_list()
    # LF(r) = D[bwt[r]] + occ(bwt[r], r)
    lf, seen = [], [0] * sigma
    for sym in symbols:
        lf.append(bwt.d_array[sym] + seen[sym])
        seen[sym] += 1
    for capacity in (1, 3, 8, 1000, STREAM_BUFFER_ITEMS):
        edges = {n - 1}
        for lo in range(0, n, capacity):
            hi = min(lo + capacity, n)
            edges.add(hi - 1)           # the last rank of a chunk
            for b in range(lo, hi, block):
                edges |= {b, min(b + block, hi) - 1}
        cursor_sets = [sorted(edges), sorted(rng.sample(range(n), 5)),
                       [r for r in range(n) if rng.random() < 0.6]]
        for directory in (None, tmp_path / str(capacity)):
            if directory:
                directory.mkdir()
                directory = str(directory)
            f = StreamFactory(directory, capacity=capacity)
            table = _lf_directory(bwt, f)
            for ranks in cursor_sets:
                calls = []

                def step(rank, payload, sym, image):
                    calls.append((rank, payload, sym, image))
                    return payload if rank % 2 else None
                # cursor (rank r, payload r), packed at radix n, in two
                # streams read one after the other
                cut = len(ranks) // 2
                cursors = [f.from_items([r * n + r for r in part], "cursors")
                           for part in (ranks[:cut], ranks[cut:])]
                moved = _lf_pass(bwt, table, cursors, step, f, None, n)
                case = (capacity, directory, ranks)
                assert calls == [(r, r, symbols[r], lf[r]) for r in ranks], case
                assert [divmod(c, n) for s in moved
                        for c in s.rewind().items()] == \
                    sorted((lf[r], r) for r in ranks if r % 2), case
                f.release(*cursors, *moved)
            f.release(table)
            assert f.streams == [] and f.total_non_sequential() == 0


@pytest.mark.parametrize("sigma", [4, 64, 256])
def test_lf_directory_takes_about_a_byte_per_symbol(rng, sigma):
    n = STREAM_BUFFER_ITEMS + 4321
    f = StreamFactory()
    records = list(_lf_directory(_random_bwt(rng, n, sigma), f).chunks())
    assert len(records) == ceil(n / STREAM_BUFFER_ITEMS)
    size = sum(len(rows) * rows.itemsize for rows in records)
    assert size <= n + 8 * sigma * len(records)


def test_lf_counters_do_not_grow_with_n(rng):
    peaks = []
    for n in (10 ** 3, 10 ** 4):
        fx = make_fixture(random_text(rng, n, 4), 4)
        f = StreamFactory(capacity=512)
        pd = run_rounds_external(fx.bwt, f).pd
        k = emit_k(position_counts(pd, fx.bwt, fx.sisa(n.bit_length()), f), n)
        assert k.decode_all() == list(fx.plcp.values)
        peaks.append(f.meter.peak("lf_counters"))
    assert peaks[0] == peaks[1] > 0


def test_bwt_symbols_are_bytes():
    bwt = Bwt([1, 3, 3, 2, 0, 1, 1], 4)
    assert all(isinstance(c, bytes) for c in bwt.stream().chunks())
    assert bwt.to_list() is not bwt.to_list()
    with pytest.raises(AlphabetTooLarge):
        Bwt([0, 1], 257)
    with pytest.raises(OutOfRange):
        Bwt([0, 4], 4)


def test_lf_pass_gathers_a_pass_that_fits_one_chunk(rng):
    n = 500
    bwt = _random_bwt(rng, n, 5)
    lf, seen = [], [0] * 5
    for sym in bwt.to_list():
        lf.append(bwt.d_array[sym] + seen[sym])
        seen[sym] += 1
    f = StreamFactory(capacity=64)
    table = _lf_directory(bwt, f)
    for ranks in (sorted(rng.sample(range(n), 64)), range(n)):
        cursors = [f.from_items([r * n + r for r in ranks], "cursors")]
        opened = f._counter
        moved = _lf_pass(bwt, table, cursors, lambda r, p, x, image: p, f,
                         None, n)
        if len(ranks) <= 64:  # handed on in memory, as a typed array
            assert f._counter == opened and len(moved) == 1
            assert isinstance(next(moved[0].rewind().chunks()), array)
        else:  # one bucket stream per symbol, handed on uncopied
            assert f._counter - opened == len(moved) > 1
        assert [divmod(c, n) for s in moved for c in s.rewind().items()] == \
            sorted((lf[r], r) for r in ranks)
        f.release(*cursors, *moved)
    f.release(table)
    assert f.streams == [] and f.total_non_sequential() == 0


@pytest.mark.parametrize("circular", [False, True])
def test_output_that_fits_one_buffer_is_handed_on(tmp_path, rng, monkeypatch,
                                                   circular):
    """On temp files, a walk whose n values and n / rate cursors fit one
    buffer opens no cursor, value or block stream, nor the rounds a
    bucket stream: what fits one buffer is handed on in memory.  One item
    less, or n, and the values go to streams; at capacities 3 and 64 the same
    builds open value and bucket streams, and cursor and block streams
    when a pass's cursors span chunks."""
    names = []
    stream = StreamFactory.stream

    def recorded(factory, name="tmp", capacity=None):
        names.append(name)
        return stream(factory, name, capacity)
    monkeypatch.setattr(StreamFactory, "stream", recorded)
    spilled = {"bucket", "cursors", "values", "block"}
    if circular:
        fx = make_fixture([rng.randrange(4) for _ in range(2000)], 4, True)
    else:
        fx = make_fixture(random_text(rng, 2000, 4), 4)
    n = fx.bwt.n
    for rate in (4, 64):
        m = ceil(n / rate)
        for capacity in (STREAM_BUFFER_ITEMS, n + m, n + m - 1, n, 3, 64):
            for strategy in ("external", "hybrid"):
                names.clear()
                case = (capacity, strategy, rate)
                directory = tmp_path / ("%d-%s-%d" % case)
                directory.mkdir()
                with StreamFactory(str(directory), capacity=capacity) as f:
                    k = build_plcp(fx.bwt, fx.sisa(rate), strategy, factory=f)
                    assert k.decode_all() == list(fx.plcp.values), case
                    assert f.total_non_sequential() == 0, case
                    assert f.streams == [], case
                if capacity >= n + m:
                    assert not spilled & {*names}, case
                elif capacity >= n:
                    assert "values" in names, case
                else:
                    expected = (spilled if m > capacity
                                else spilled - {"cursors", "block"})
                    assert spilled & {*names} == expected, case


def test_spilled_lf_pass_buckets_fill_one_buffer(rng, monkeypatch):
    """A pass whose cursors spill goes to sigma bucket streams of
    capacity // sigma items a chunk, so their write buffers hold at most
    one buffer of cursors together."""
    chunks = {}  # bucket stream: its chunk sizes
    stream, put = StreamFactory.stream, emlayer.EmStream._put

    def opened(factory, name="tmp", capacity=None):
        s = stream(factory, name, capacity)
        if name == "bucket":
            chunks[s] = []
        return s

    def recorded(s, chunk):
        if s in chunks:
            chunks[s].append(len(chunk))
        put(s, chunk)
    monkeypatch.setattr(StreamFactory, "stream", opened)
    monkeypatch.setattr(emlayer.EmStream, "_put", recorded)
    fx = make_fixture(random_text(rng, 400, 4), 4)
    pd = run_rounds_internal(fx.bwt).pd
    f = StreamFactory(capacity=64)
    k = reorder_pd(pd, fx.bwt, fx.sisa(2), factory=f)  # m = 200 cursors
    assert k.bit_string() == fx.k_bits()
    assert f.streams == [] and f.total_non_sequential() == 0
    sizes = [size for sizes in chunks.values() for size in sizes]
    assert len(chunks) >= 4 and sizes, chunks
    assert max(sizes) <= 64 // 4, sizes


def test_walk_buffers_do_not_exceed_the_capacity(rng):
    n = 1000
    fx = make_fixture(random_text(rng, n, 4), 4)
    counts = run_rounds_internal(fx.bwt).pd.counts()
    # rate 100, 10 cursors: each pass's values fit one list of m slots;
    # rate 4, 250 cursors: every pass spills, and its values are placed
    # one block of 64 slots at a time
    for rate in (100, 4):
        f = StreamFactory(capacity=64)
        k = reorder_pd(pd_from_counts(counts), fx.bwt, fx.sisa(rate),
                       factory=f)
        assert k.decode_all() == list(fx.plcp.values), rate
        peaks = f.meter.peaks
        assert peaks["count_column"] > 0, rate
        assert ("walk_cursors" in peaks) == (rate == 100), rate
        assert 0 < peaks["pass_values"] <= 64, (rate, peaks)
        assert max(peaks.values()) <= 64, (rate, peaks)


@pytest.mark.parametrize("capacity", [128, 512])
def test_walk_reads_its_passes_out_within_one_buffer(tmp_path, rng,
                                                     monkeypatch, capacity):
    """Above one buffer, the read-out holds one chunk of every pass at
    once, together at most a buffer, whether a pass's values went to a
    list (m <= capacity) or were sorted as pairs.  Sample 0's last pass
    is neither the first nor the last, so its row gives a tail of
    several positions."""
    fx = make_fixture(random_text(rng, 2000, 4), 4)
    n, rate = fx.bwt.n, 7
    assert 2 <= n - (ceil(n / rate) - 1) * rate < rate
    held = {}
    peak = [0]
    chunks = emlayer._FileBackend.chunks

    def recorded(backend, start, capacity):
        for chunk in chunks(backend, start, capacity):
            held[backend] = len(chunk)
            peak[0] = max(peak[0], sum(held.values()))
            yield chunk
        held.pop(backend, None)
    with StreamFactory(str(tmp_path), capacity=capacity) as f:
        values = reorder._walk(fx.bwt, fx.sisa(rate), None, f)[0]
        monkeypatch.setattr(emlayer._FileBackend, "chunks", recorded)
        text = list(values)
        assert text[1:] + text[:1] == list(fx.text.symbols)
        assert f.streams == [] and f.total_non_sequential() == 0
    assert 0 < peak[0] <= capacity, peak


def test_walk_closed_early_frees_its_streams(tmp_path, rng):
    """A walk's iterator, or the hybrid's, closed before its end (say, by
    an error while its reader codes K) releases the streams it reads."""
    fx = make_fixture(random_text(rng, 600, 4), 4)
    pd = run_rounds_internal(fx.bwt).pd
    with StreamFactory(str(tmp_path), capacity=64) as f:
        counts = position_counts(pd, fx.bwt, fx.sisa(8), f)
        next(counts)
        assert f.streams
        counts.close()
        assert f.streams == []
        counts = hybrid_pd(fx.bwt, fx.sisa(8), 1, factory=f)
        next(counts)
        assert f.streams
        counts.close()
        assert f.streams == []


def test_file_streams_leave_no_descriptor_open(tmp_path, rng):
    """The file backend writes and reads through raw descriptors, which
    no ResourceWarning reports: a build on temp files, and a walk closed
    early, leave the process's open descriptors as they found them."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open descriptors")
    fx = make_fixture(random_text(rng, 600, 4), 4)
    pd = run_rounds_internal(fx.bwt).pd
    before = len(os.listdir("/proc/self/fd"))
    for strategy in ("external", "hybrid"):
        with StreamFactory(str(tmp_path), capacity=64) as f:
            k = build_plcp(fx.bwt, fx.sisa(8), strategy, factory=f)
        assert k.decode_all() == list(fx.plcp.values)
        assert len(os.listdir("/proc/self/fd")) == before, strategy
    with StreamFactory(str(tmp_path), capacity=64) as f:
        counts = position_counts(pd, fx.bwt, fx.sisa(8), f)
        next(counts)
        counts.close()
    assert len(os.listdir("/proc/self/fd")) == before


def test_walk_reads_more_passes_than_files_may_be_open(tmp_path, rng):
    """The read-out reads the rate passes' streams side by side; on the
    file backend each opens its file only while it reads a chunk, so a
    rate above the process's limit of open files still builds."""
    resource = pytest.importorskip("resource")
    fx = make_fixture(random_text(rng, 800, 4), 4)
    pd = run_rounds_internal(fx.bwt).pd
    limits = resource.getrlimit(resource.RLIMIT_NOFILE)
    free = os.open(os.devnull, os.O_RDONLY)  # the lowest free descriptor
    os.close(free)
    resource.setrlimit(resource.RLIMIT_NOFILE, (free + 32, limits[1]))
    try:
        with StreamFactory(str(tmp_path), capacity=64) as f:
            # 100 passes, each to its own value stream of 8 one-value chunks
            k = reorder_pd(pd, fx.bwt, fx.sisa(100), factory=f)
            assert f.streams == [] and f.total_non_sequential() == 0
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, limits)
    assert k.decode_all() == list(fx.plcp.values)


def test_walk_writes_no_more_per_value_at_a_higher_rate(tmp_path, rng,
                                                        monkeypatch):
    """Cursors carry no values: above one buffer, the temp-file bytes a
    walk writes do not grow with the sampling rate, as they did while
    every pass re-wrote each cursor's window."""
    n = 8000
    fx = make_fixture(random_text(rng, n, 4), 4)
    counts = run_rounds_internal(fx.bwt).pd.counts()
    written = []
    append_chunk = emlayer._FileBackend.append_chunk

    def counted(backend, chunk):
        size = os.path.getsize(backend.path)
        append_chunk(backend, chunk)
        written[-1] += os.path.getsize(backend.path) - size
    monkeypatch.setattr(emlayer._FileBackend, "append_chunk", counted)
    for rate in (4, 64):
        directory = tmp_path / str(rate)
        directory.mkdir()
        with StreamFactory(str(directory), capacity=256) as f:
            written.append(0)
            k = emit_k(position_counts(pd_from_counts(counts), fx.bwt,
                                       fx.sisa(rate), f), n)
            assert k.decode_all() == list(fx.plcp.values), rate
            assert f.streams == [] and f.total_non_sequential() == 0
    assert 0 < written[1] <= 1.25 * written[0], written


def test_spilled_walk_places_its_values_by_slot(tmp_path, rng, monkeypatch):
    """A walk whose cursors span chunks places each pass's values by
    slot, one block of ``capacity`` slots at a time, and sorts nothing:
    on temp files its block and value streams take at most 4 bytes a
    value."""
    n = 8000
    fx = make_fixture(random_text(rng, n, 5), 5)
    written = Counter()  # bytes written per stream name
    append_chunk = emlayer._FileBackend.append_chunk

    def counted(backend, chunk):
        size = os.path.getsize(backend.path)
        append_chunk(backend, chunk)
        name = os.path.basename(backend.path).rsplit("-", 1)[0]
        written[name] += os.path.getsize(backend.path) - size
    monkeypatch.setattr(emlayer._FileBackend, "append_chunk", counted)
    with StreamFactory(str(tmp_path), capacity=256) as f:
        k = build_plcp(fx.bwt, fx.sisa(4), "external", factory=f)
        assert k.decode_all() == list(fx.plcp.values)
        assert f.streams == [] and f.total_non_sequential() == 0
    assert written["cursors"] > 0 and written["block"] > 0, written
    assert "sorted" not in written, written
    assert written["values"] + written["block"] <= 4 * n, written


def test_walk_heap_stays_a_few_bytes_per_symbol(rng):
    """A cursor is one integer in a typed array, not a (rank, sample)
    tuple of two int objects: on memory streams at rate 4 the walk and
    emit_k peak at most 24 B/symbol of Python heap above their entry
    (about 64 with tuple cursors)."""
    n = 2 * 10 ** 4
    fx = make_fixture(random_text(rng, n, 4), 4)
    pd = run_rounds_external(fx.bwt, StreamFactory()).pd
    sisa = fx.sisa(4)
    f = StreamFactory()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        k = emit_k(position_counts(pd, fx.bwt, sisa, f), n)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert k.decode_all() == list(fx.plcp.values)
    assert peak <= 24 * n, peak / n


def test_emit_k_matches_the_whole_code_at_every_shift(rng):
    """K packed a piece at a time, the leftover bits carried, equals the
    0/1 text of all the counts rotated, at shifts whose head code ends
    inside a byte."""
    n = 3 * PIECE + 5
    counts = [rng.randrange(4) for _ in range(n)]
    shifts = (0, 1, 7, n - 1)
    for shift in shifts[1:]:  # a head of whole bytes gains a zero bit
        if (sum(counts[:shift]) + shift) % 8 == 0:
            counts[shift - 1] += 1
    code = ["0" * c + "1" for c in counts]
    for shift in shifts:
        head = "".join(code[:shift])
        assert shift == 0 or len(head) % 8, shift
        k = emit_k(iter(counts), n, shift=shift)
        assert k.bit_string() == "".join(code[shift:]) + head, shift
        assert k.shift == shift


def test_emit_k_transient_stays_a_piece(rng):
    """emit_k packs each piece of the code as it comes: above what the
    returned K keeps, its Python heap peaks at most 0.5 B/symbol at
    n = 10**5 (2.3 at shift 0 and 3.3 at n / 2 with the whole code
    joined as 0/1 text)."""
    n = 10 ** 5
    counts = array("B", (rng.randrange(3) for _ in range(n)))
    for shift in (0, n // 2):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            k = emit_k(iter(counts), n, shift=shift)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept <= 0.5 * n, ((peak - kept) / n, shift)
        assert kept - entry > 0 and k.n == n


@pytest.mark.parametrize("capacity", [3, STREAM_BUFFER_ITEMS])
def test_count_column_holds_counts_above_a_byte(tmp_path, rng, capacity):
    unit = [rng.randrange(1, 4) for _ in range(300)]
    fx = make_fixture(unit * 2 + [0], 4)
    counts = run_rounds_internal(fx.bwt).pd.counts()
    assert max(counts) > 255
    for directory in (None, str(tmp_path)):
        f = StreamFactory(directory, capacity=capacity)
        for rate in (1, 7, fx.n):
            k = reorder_pd(pd_from_counts(counts), fx.bwt, fx.sisa(rate),
                           factory=f)
            assert k.decode_all() == list(fx.plcp.values), (directory, rate)
        assert f.streams == [] and f.total_non_sequential() == 0


@pytest.fixture
def fused_columns(monkeypatch):
    """The column chunks of every walk that finds ranks."""
    records = []
    walk = reorder._walk

    def recording(bwt, sisa, column, factory, find=()):
        if find:
            records.extend(column.rewind().chunks())
        return walk(bwt, sisa, column, factory, find)
    monkeypatch.setattr(reorder, "_walk", recording)
    return records


@pytest.mark.parametrize("capacity", [3, STREAM_BUFFER_ITEMS])
def test_text_walk_reads_out_bytes_and_typed_arrays(tmp_path, rng,
                                                   fused_columns, capacity):
    """With ranks to find, the fused column and the counts come as typed
    arrays, a buffer at a time, and the text as bytes."""
    fx = make_fixture(random_text(rng, 300, 5), 5)
    pd_counts = run_rounds_internal(fx.bwt).pd.counts()
    for directory in (None, str(tmp_path)):
        f = StreamFactory(directory, capacity=capacity)
        fused_columns.clear()
        counts, text, _, _ = position_counts(pd_from_counts(pd_counts),
                                             fx.bwt, fx.sisa(7), f,
                                             find=range(fx.n))
        assert isinstance(text, bytes) and text == fx.text.symbols
        chunks = list(counts.rewind().chunks())
        for chunk in fused_columns + chunks:
            assert isinstance(chunk, array) and len(chunk) <= capacity
        assert len(fused_columns) == ceil(fx.n / capacity)
        assert emit_k(counts.rewind().items(), fx.n).bit_string() == \
            fx.k_bits()
        f.release(counts)
        assert f.streams == [] and f.total_non_sequential() == 0


@pytest.mark.parametrize("capacity", [3, STREAM_BUFFER_ITEMS])
def test_fused_column_switches_to_four_bytes(tmp_path, rng, fused_columns,
                                             capacity):
    """With ranks to find, a column value is count * 256 + symbol at
    sigma 256, so a count above 255 needs the record type I."""
    unit = [rng.randrange(1, 256) for _ in range(300)]
    fx = make_fixture(unit * 2 + [0], 256)
    pd_counts = run_rounds_internal(fx.bwt).pd.counts()
    for directory in (None, str(tmp_path)):
        f = StreamFactory(directory, capacity=capacity)
        for cutoff in (0, 1):
            k = build_plcp(fx.bwt, fx.sisa(7), "hybrid", cutoff=cutoff,
                           factory=f)
            assert k.decode_all() == list(fx.plcp.values), (directory, cutoff)
        fused_columns.clear()
        counts, text, keys, positions = position_counts(
            pd_from_counts(pd_counts), fx.bwt, fx.sisa(7), f,
            find=range(fx.n))
        assert emit_k(counts, fx.n).decode_all() == list(fx.plcp.values)
        assert text == fx.text.symbols
        assert dict(zip(keys, positions)) == dict(enumerate(fx.sa))
        assert max(map(max, fused_columns)) > 65535
        assert "I" in {record.typecode for record in fused_columns}
        f.release(counts)
        assert f.streams == [] and f.total_non_sequential() == 0


def test_hybrid_walk_carries_counts_above_65535(rng, fused_columns):
    """A set count above 255, where the shorter repeat starts, rides
    beside its symbol while the kernel still compares the longer one."""
    a = [rng.randrange(1, 256) for _ in range(260)]
    b = [rng.randrange(1, 256) for _ in range(300)]
    fx = make_fixture(a * 2 + b * 2 + [0], 256)
    k = build_plcp(fx.bwt, fx.sisa(7), "hybrid", cutoff=280,
                   factory=StreamFactory())
    assert k.decode_all() == list(fx.plcp.values)
    assert max(map(max, fused_columns)) > 65535
    # the full cutoff leaves the kernel nothing, so its walk finds nothing
    fused_columns.clear()
    k = build_plcp(fx.bwt, fx.sisa(7), "hybrid", cutoff=fx.n,
                   factory=StreamFactory())
    assert k.decode_all() == list(fx.plcp.values)
    assert fused_columns == []
