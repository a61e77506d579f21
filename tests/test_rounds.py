import os
import random
import tracemalloc
from itertools import compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import abbab, banana, make_fixture, random_text
from oracle_rounds import pd_from_counts, run_rounds_internal, to_planes
from plcpbits import StreamFactory, build_plcp, emlayer, rounds
from plcpbits.emlayer import STREAM_BUFFER_ITEMS, from_planes
from plcpbits.errors import NotIncreasing, OutOfRange
from plcpbits.reorder import emit_k, position_counts
from plcpbits.rounds import (IntervalList, PdBits, _grow, _round,
                             run_rounds_external)
from plcpbits.textcore import (Text, brute_period, build_bwt,
                               build_suffix_array)


def expected_pd_counts(fx):
    """Rank-order counts from the PLCP oracle (circular predecessor)."""
    n = fx.n
    v = fx.plcp.values
    return [v[fx.sa[r]] - v[(fx.sa[r] + n - 1) % n] + 1 for r in range(n)]


def test_interval_list_roundtrip():
    il = IntervalList.from_pairs([(0, 1), (1, 4), (4, 5), (5, 7)])
    assert list(il) == [(0, 1), (1, 4), (4, 5), (5, 7)]
    assert il.is_partition(7)
    assert not IntervalList.from_pairs([(0, 1), (2, 3)]).is_partition(3)
    with pytest.raises(NotIncreasing):
        IntervalList.from_pairs([(0, 3), (2, 5)])
    with pytest.raises(OutOfRange):
        IntervalList.single(2, 2)


def test_pd_bits_counts():
    pd = pd_from_counts([1, 1, 0, 4, 1, 0, 0])
    assert pd.bit_string() == "01011000010111"
    assert pd.counts() == [1, 1, 0, 4, 1, 0, 0]


def test_internal_banana():
    fx = banana()
    r = run_rounds_internal(fx.bwt)
    assert r.pd.bit_string() == "01011000010111"
    assert r.rounds == 4  # max LCP 3, plus one


def test_internal_tiny():
    fx = make_fixture([1, 0], 2)
    assert run_rounds_internal(fx.bwt).pd.bit_string() == "0101"


def test_internal_worst_case_rounds():
    fx = make_fixture([1] * 7 + [0], 2)
    assert run_rounds_internal(fx.bwt).rounds == 7  # n-1 for 1^{n-1}0


def test_external_matches_internal_banana():
    fx = banana()
    f = StreamFactory()
    r = run_rounds_external(fx.bwt, f)
    assert r.pd.bit_string() == "01011000010111"
    assert r.rounds == 4
    assert f.total_non_sequential() == 0


def test_external_circular_abbab():
    fx = abbab()
    r = run_rounds_external(fx.bwt, StreamFactory())
    bits = r.pd.bit_string()
    assert bits.count("1") == 5 and bits.count("0") == 5
    assert r.pd.counts() == expected_pd_counts(fx)


def test_strategies_agree(rng):
    for _ in range(40):
        n = rng.randrange(2, 100)
        sigma = rng.choice([2, 4, 16])
        fx = make_fixture(random_text(rng, n, sigma), sigma)
        a = run_rounds_internal(fx.bwt)
        b = run_rounds_external(fx.bwt, StreamFactory())
        assert a.pd.bit_string() == b.pd.bit_string()
        assert a.rounds == b.rounds == max(fx.lcp.values) + 1
        assert a.pd.counts() == expected_pd_counts(fx)
        # chunk boundaries: carries, symbols absent from a chunk, PD runs
        for capacity in (1, 3, 8):
            c = run_rounds_external(fx.bwt, StreamFactory(capacity=capacity))
            assert c.pd.bit_string() == a.pd.bit_string(), (n, capacity)
            assert c.rounds == a.rounds


def primitive_text(rng, n, sigma):
    """A random circular text of n symbols below σ, none a power."""
    while True:
        symbols = [rng.randrange(sigma) for _ in range(n)]
        if brute_period(symbols) == n:
            return symbols


@pytest.mark.parametrize("circular", [False, True])
@pytest.mark.parametrize("sigma", [2, 4, 16, 200])
def test_rounds_match_oracle_round_for_round(rng, sigma, circular):
    """Rounds cut after k, as the hybrid cuts them, give the oracle's PD
    counts and set marks after k rounds, for every k from 0 to the last,
    on chunks of 3 and 64 ranks and of the default buffer."""
    for _ in range(3):
        n = rng.randrange(2, 150)
        fx = (make_fixture(primitive_text(rng, n, sigma), sigma, True)
              if circular else make_fixture(random_text(rng, n, sigma), sigma))
        last = run_rounds_internal(fx.bwt).rounds
        for k in range(last + 1):
            want = run_rounds_internal(fx.bwt, max_rounds=k)
            marks = list(want.set_marks.rewind().items())
            for capacity in (3, 64, STREAM_BUFFER_ITEMS):
                f = StreamFactory(capacity=capacity)
                r = run_rounds_external(fx.bwt, f, max_rounds=k)
                assert r.rounds == want.rounds == k, (n, k, capacity)
                assert r.pd.counts() == want.pd.counts(), (n, k, capacity)
                assert list(r.set_marks.rewind().items()) == marks
                f.release(r.pd._bits, r.set_marks)
                assert f.streams == [] and f.total_non_sequential() == 0


def test_value_set_in_lcp_round(rng, tmp_path):
    """A rank becomes set exactly in the round equal to its LCP value; the
    external rounds' set marks are their interval starts."""
    for _ in range(10):
        n = rng.randrange(2, 64)
        fx = make_fixture(random_text(rng, n, 4), 4)
        for cutoff in range(max(fx.lcp.values) + 2):
            r = run_rounds_internal(fx.bwt, max_rounds=cutoff)
            want = [int(fx.lcp[rank] < cutoff) for rank in range(n)]
            assert list(r.set_marks.rewind().items()) == want
            for directory in (None, str(tmp_path)):
                for capacity in (3, STREAM_BUFFER_ITEMS):
                    with StreamFactory(directory, capacity=capacity) as f:
                        e = run_rounds_external(fx.bwt, f, max_rounds=cutoff)
                        assert list(e.set_marks.rewind().items()) == want
                        f.release(e.pd._bits, e.set_marks)


def test_external_rewind_budget(rng):
    """No stream is rewound more than a few times per round."""
    for _ in range(8):
        n = rng.randrange(8, 120)
        fx = make_fixture(random_text(rng, n, 4), 4)
        f = StreamFactory(capacity=64)
        r = run_rounds_external(fx.bwt, f)
        assert f.total_non_sequential() == 0
        assert f.max_rewinds() <= 8 * r.rounds
        assert fx.bwt.stream().rewinds <= f.max_rewinds()


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_round_stats_account_for_every_rank(rng, tmp_path, backend):
    """Per-round stats: the newly set counts of a full build sum to n."""
    for sigma, n in [(4, 300), (2, 90), (16, 200)]:
        fx = make_fixture(random_text(rng, n, sigma), sigma)
        directory = str(tmp_path) if backend == "file" else None
        with StreamFactory(directory=directory, capacity=64) as f:
            r = run_rounds_external(fx.bwt, f)
            assert len(r.stats) == r.rounds == max(fx.lcp.values) + 1
            assert sum(s.newly_set for s in r.stats) == n
            # round k sets the ranks of LCP k, among its interval starts
            for k, s in enumerate(r.stats):
                assert s.newly_set == fx.lcp.values.count(k)
                assert s.newly_set <= s.starts <= n
                assert s.seconds >= 0
            # every active rank gains one zero bit of PD
            pd_bits = [n] + [s.pd_bits for s in r.stats]
            assert [s.active for s in r.stats] == [
                b - a for a, b in zip(pd_bits, pd_bits[1:])]
            assert pd_bits[-1] == len(r.pd)
            f.release(r.pd._bits, r.set_marks)


def test_stop_predicate_ends_rounds(rng):
    fx = make_fixture(random_text(rng, 200, 4), 4)
    seen = []

    def stop(stats):
        seen.append(len(stats))
        return len(stats) == 3

    r = run_rounds_external(fx.bwt, StreamFactory(), stop=stop)
    assert r.rounds == len(r.stats) == 3 and seen == [1, 2, 3]
    assert r.pd.bit_string() == run_rounds_external(
        fx.bwt, StreamFactory(), max_rounds=3).pd.bit_string()


@pytest.mark.parametrize("k", [254, 255, 256, 300])
def test_count_lanes_widen_past_a_byte(tmp_path, k):
    """1^k 0 reaches a count of k after k rounds, so 256 and 300 pass the
    byte lane.  The file backend opens a file per chunk, so it runs the
    short capacities for the first text that crosses only."""
    fx = make_fixture([1] * k + [0], 2)
    want = run_rounds_internal(fx.bwt).pd.bit_string()
    runs = [(None, 1), (None, 3), (None, STREAM_BUFFER_ITEMS),
            (str(tmp_path), STREAM_BUFFER_ITEMS)]
    if k == 256:
        runs += [(str(tmp_path), 1), (str(tmp_path), 3)]
    for directory, capacity in runs:
        with StreamFactory(directory, capacity=capacity) as f:
            r = run_rounds_external(fx.bwt, f)
            assert r.pd.bit_string() == want, (directory, capacity)
            assert max(r.pd.counts()) == k
            widened = {lanes.typecode for lanes in r.pd.lanes()} != {"B"}
            assert widened == (k > 255)
            plcp = emit_k(position_counts(r.pd, fx.bwt, fx.sisa(7), f), fx.n)
            assert plcp.decode_all() == list(fx.plcp.values)
            f.release(r.pd._bits, r.set_marks)
            assert f.streams == [] and f.total_non_sequential() == 0


def test_grow_adds_a_plane_exactly_on_a_carry_out_of_the_top():
    """The plane add at the counts where a typed lane would widen."""
    marks = 0b011  # ranks 0 and 1

    def grown(counts):
        planes = _grow(to_planes(counts), marks)
        lanes = from_planes(planes, 3)
        return list(lanes), lanes.typecode, len(planes)
    assert grown([254, 3, 255]) == ([255, 4, 255], "B", 8)
    assert grown([255, 3, 0]) == ([256, 4, 0], "H", 9)
    assert grown([65534, 0, 65535]) == ([65535, 1, 65535], "H", 16)
    assert grown([65535, 0, 7]) == ([65536, 1, 7], "I", 17)


def test_pd_on_disk_takes_at_most_half_a_byte_per_rank(tmp_path, rng):
    """The file backend keeps PD as bit planes: random σ=4 text needs at
    most 4 planes, so PD takes at most n/2 bytes plus one per chunk,
    where byte lanes took n and unary PD n plus the sum of the counts."""
    n = 5000
    fx = make_fixture(random_text(rng, n, 4), 4)
    with StreamFactory(str(tmp_path)) as f:
        r = run_rounds_external(fx.bwt, f)
        assert r.rounds == max(fx.lcp.values) + 1
        chunks = -(-n // f.capacity)
        on_disk = sum(p.stat().st_size for p in tmp_path.glob("pd-*"))
        assert 0 < on_disk <= n // 2 + chunks
        assert sum(r.pd.counts()) > 128 * chunks
        f.release(r.pd._bits, r.set_marks)


def test_a_round_holds_one_chunk_of_pd_planes(rng, monkeypatch):
    """Above one buffer, a round appends each chunk's grown planes to the
    new PD before it grows the next chunk's: it holds one chunk of them."""
    n, capacity = 1000, 64
    fx = make_fixture(random_text(rng, n, 4), 4)
    events = []
    grow, append = rounds._grow, emlayer.EmStream.append_whole

    def grown(planes, marks):
        events.append("grow")
        return grow(planes, marks)

    def appended(stream, chunk):
        events.append("append")
        append(stream, chunk)
    monkeypatch.setattr(rounds, "_grow", grown)
    monkeypatch.setattr(emlayer.EmStream, "append_whole", appended)
    r = run_rounds_external(fx.bwt, StreamFactory(capacity=capacity))
    assert r.pd.counts() == expected_pd_counts(fx)
    assert events == ["grow", "append"] * (-(-n // capacity) * r.rounds)


# counts that cross a byte and two bytes, among small ones
COUNTS = st.lists(st.one_of(st.integers(0, 3), st.sampled_from(
    [254, 255, 256, 65534, 65535, 65536])), min_size=1, max_size=40)


@pytest.mark.parametrize("capacity", [1, 3, 8, STREAM_BUFFER_ITEMS])
@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(max_examples=30, deadline=None)
@given(counts=COUNTS, marks=st.integers(0, (1 << 41) - 1))
@example(counts=[65535] * 8 + [1], marks=(1 << 9) - 1)  # 17 planes a chunk
def test_bit_planes_hold_counts_and_grow_by_carry_save(backend, capacity,
                                                       counts, marks):
    """PD from counts gives them back, and the carry-save grow adds one
    at exactly the marked ranks, with one plane more in a chunk exactly
    when a carry leaves its top plane.  A last chunk is short, and a
    full chunk of more than 8 planes comes back whole."""
    if capacity > 1 and len(counts) % capacity == 0:
        counts.append(1)
    n = len(counts)
    marks &= (1 << n) - 1
    want = [c + (marks >> i & 1) for i, c in enumerate(counts)]
    with (StreamFactory.tempdir(capacity) if backend == "file"
          else StreamFactory(capacity=capacity)) as f:
        pd = pd_from_counts(counts, f)
        assert pd.counts() == counts and len(pd) == n + sum(counts)
        chunks = range(0, n, capacity)
        grown = pd.written(f, map(_grow, pd.chunks(), (
            marks >> lo & (1 << capacity) - 1 for lo in chunks)))
        assert grown.counts() == want and len(grown) == n + sum(want)
        for lo, planes in zip(chunks, grown.chunks()):
            assert len(planes) == max(want[lo : lo + capacity]).bit_length()
        f.release(pd._bits, grown._bits)


@pytest.mark.parametrize("n, capacity",
                         [(3001, 64), (700, 3), (2000, STREAM_BUFFER_ITEMS)])
def test_mark_streams_on_disk_take_a_bit_per_rank(tmp_path, monkeypatch, n,
                                                  capacity):
    """On temp files, once a round is done, its PD stream holds at most
    ceil(n / 8) bytes plus one per chunk per plane, and its next starts
    at most ceil(n / 8) plus one per chunk: in one buffer, a starts
    stream; above, the round's per-symbol bucket streams together, plus
    one byte per symbol, read in place as the next round's starts, so no
    starts stream is made.  No stream of first or active marks is ever
    made: a round's state is its starts and PD."""
    fx = make_fixture(random_text(random.Random(n), n, 4), 4)
    bound = -(-n // 8) + -(-n // capacity)
    planes = max(expected_pd_counts(fx)).bit_length()
    made = set()  # the kinds of stream a file was made for
    init = emlayer._FileBackend.__init__

    def named(backend, path, spares):
        made.add(os.path.basename(path).rsplit("-", 1)[0])
        init(backend, path, spares)
    monkeypatch.setattr(emlayer._FileBackend, "__init__", named)
    kind = "bucket" if n > capacity else "starts"
    starts = []  # per round, the bytes of its next starts

    def stop(stats):
        sizes = {}
        for name in os.listdir(tmp_path):
            sizes.setdefault(name.rsplit("-", 1)[0], []).append(
                os.path.getsize(os.path.join(tmp_path, name)))
        assert 0 < max(sizes["pd"]) <= planes * bound, sizes["pd"]
        starts.append(sum(sizes[kind]))  # a released file is emptied
        return False

    with StreamFactory(str(tmp_path), capacity=capacity) as f:
        r = run_rounds_external(fx.bwt, f, stop=stop)
        assert r.pd.counts() == expected_pd_counts(fx)
        assert len(starts) == r.rounds
        assert all(0 < b <= bound + 4 * (n > capacity) for b in starts), \
            starts
        f.release(r.pd._bits, r.set_marks)
        assert f.streams == []
    assert "pd" in made and not made & {"first", "active"}, made
    assert made & {"starts", "bucket"} == {kind}, made


@pytest.mark.parametrize("sigma, bounds", [
    (5, {"rounds": (5.18, 4.67), "build": (12.70, 20.27)}),
    (65, {"rounds": (1.22, 0.83), "build": (9.30, 23.57)})])
def test_traffic_above_one_buffer_stays_gated(tmp_path, monkeypatch, sigma,
                                              bounds):
    """On temp files at capacity 64, n = 3001, rate 8, the rounds alone
    and a whole external build write and read at most the B/symbol
    measured plus 2%: a round's per-symbol bucket streams are read in
    place as the next starts, not copied into a starts stream (5.08 and
    4.58 for the rounds at sigma 5, 12.45 and 19.87 for the build; 1.19
    and 0.81, 9.11 and 23.10 at sigma 65; with the copy, 6.71 and 6.20,
    14.08 and 21.50; 1.69 and 1.32, 9.61 and 23.61)."""
    n = 3001
    fx = make_fixture(random_text(random.Random(n), n, sigma), sigma)
    tally = [0, 0]  # bytes written, bytes read
    append_chunk, pread = emlayer._FileBackend.append_chunk, os.pread

    def written(backend, chunk):
        tally[0] += memoryview(chunk).nbytes
        append_chunk(backend, chunk)

    def read(fd, size, offset):
        data = pread(fd, size, offset)
        tally[1] += len(data)
        return data
    monkeypatch.setattr(emlayer._FileBackend, "append_chunk", written)
    monkeypatch.setattr(os, "pread", read)
    for what, (write_bound, read_bound) in bounds.items():
        tally[:] = [0, 0]
        with StreamFactory(str(tmp_path / what), capacity=64) as f:
            os.mkdir(f.directory)
            if what == "rounds":
                r = run_rounds_external(fx.bwt, f)
                used = tally[:]  # before the check reads PD
                assert r.pd.counts() == expected_pd_counts(fx)
                f.release(r.pd._bits, r.set_marks)
            else:
                k = build_plcp(fx.bwt, fx.sisa(8), "external", factory=f)
                used = tally[:]
                assert k.bit_string() == fx.k_bits()
            assert f.streams == [] and f.total_non_sequential() == 0
        assert used[0] <= write_bound * n, (what, used[0] / n)
        assert used[1] <= read_bound * n, (what, used[1] / n)


def reference_next_starts(keys, starts, sigma):
    """Per rank: a rank is first when its symbol is new in its interval;
    the first marks move to their LF images by one ``compress`` per symbol.
    Returns the moved marks and the first marks.
    """
    first = []
    for sym, start in zip(keys, starts):
        if start:
            seen = set()
        first.append(sym not in seen)
        seen.add(sym)
    return (b"".join(bytes(compress(first, [s == a for s in keys]))
                     for a in range(sigma)), bytes(first))


def round_from_zero_pd(keys, starts, sigma, capacity):
    """``_round`` on the 0/1 ``starts`` from a PD of zero counts: the next
    starts, as 0/1 bytes, and the grown counts, one PD chunk a stream
    chunk."""
    f = StreamFactory(capacity=capacity)
    marks = f.bits("starts")
    marks.append_chunk(starts)
    marks.finish()
    out, pd, count, active = _round(f.wrap(bytes(keys)), marks,
                                    PdBits(None, len(keys), capacity),
                                    sigma, f)
    assert count == sum(out.rewind().items())
    assert active == sum(pd.counts())
    assert [len(c) for c in out.rewind().chunks()] == \
        [len(c) for c in marks.rewind().chunks()] == \
        [len(c) for c in pd.lanes()]
    return bytes(out.rewind().items()), bytes(pd.counts())


def grown_by_reference(keys, starts, sigma):
    """The next starts and the counts grown from zero by the reference:
    the first marks that are not starts; rank 0 begins an interval,
    marked in the starts or not."""
    nxt, first = reference_next_starts(keys, b"\1" + starts[1:], sigma)
    return nxt, bytes(f & (1 - b) for f, b in zip(first, starts))


@pytest.mark.parametrize("sigma", [1, 2, 5, 64, 255, 256])
def test_next_starts_match_per_rank_reference(rng, sigma):
    """The next starts and, grown from a zero PD, the active marks: the
    first marks that are not starts, which with the starts are all the
    first marks, since a start is first."""
    for capacity in (1, 3, 8, STREAM_BUFFER_ITEMS):
        for density in (0.0, 0.05, 0.5, 1.0):
            n = rng.randrange(1, 400)
            keys = [rng.randrange(sigma) for _ in range(n)]
            rest = [rng.random() < density for _ in range(n - 1)]
            # rank 0 begins an interval, marked in the starts or not
            for head in (1, 0):
                starts = bytes([head] + rest)
                want = grown_by_reference(keys, starts, sigma)
                got = round_from_zero_pd(keys, starts, sigma, capacity)
                assert got == want, (n, capacity, density, head)


@pytest.mark.parametrize("sigma", [127, 128, 129, 200])
def test_next_starts_across_chunk_and_key_byte_edges(rng, sigma):
    """The packed-word kernel where its words and keys have edges: at
    σ=128 the key byte symbol·2 + mark is full, above it the key splits
    by the symbol's top bit; chunks of 7 ranks, and an odd n, end chunks
    off a byte of packed marks; and in chunks of 7 most symbols are
    absent, so their carries cross chunks."""
    for capacity in (7, 64, 1000):
        for density in (0.0, 0.05, 0.5, 1.0):
            n = 2 * rng.randrange(500, 1500) + 1
            keys = [rng.randrange(sigma) for _ in range(n)]
            rest = [rng.random() < density for _ in range(n - 1)]
            for head in (1, 0):
                starts = bytes([head] + rest)
                want = grown_by_reference(keys, starts, sigma)
                got = round_from_zero_pd(keys, starts, sigma, capacity)
                assert got == want, (n, capacity, density, head)


@pytest.mark.parametrize("sigma", [5, 64])
def test_next_starts_heap_stays_under_9_bytes_per_rank(sigma):
    """The kernel works on packed words of one bit per rank and on one
    byte-per-rank key: over one chunk of 2^15 ranks it peaks at most
    9 B/rank of Python heap above its entry, where whole-chunk big
    integers of one byte per rank took 12-13."""
    n = 1 << 15
    rng = random.Random(sigma)
    f = StreamFactory(capacity=n)
    marks = f.bits("starts")
    marks.append_chunk(bytes(rng.random() < 0.3 for _ in range(n)))
    marks.finish()
    keys = f.wrap(bytes(rng.randrange(sigma) for _ in range(n)))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out, pd, _, _ = _round(keys, marks, PdBits(None, n, n), sigma, f)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert len(out) == len(pd.counts()) == n
    assert peak <= 9 * n, peak / n


@pytest.mark.parametrize("sigma, bound", [(5, 7), (65, 7), (200, 10)])
def test_round_keys_made_a_segment_at_a_time(sigma, bound):
    """A round makes its key, symbol·2 + mark a rank, a segment of ranks
    at a time: three rounds over one chunk of 3 * 10**4 ranks peak at
    most 7 B/rank of Python heap below σ=128, and 10 above, where the key
    splits by its top bit (5.6, 6.2 and 6.6 here; 8.5, 9.2 and 11.0 with
    the key made of whole-chunk big integers)."""
    n = 30_000
    text = Text(random_text(random.Random(sigma), n, sigma), sigma)
    bwt = build_bwt(text, build_suffix_array(text))
    f = StreamFactory()
    bwt.stream(f)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        r = run_rounds_external(bwt, f, 3)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert r.rounds == 3
    f.release(r.pd._bits, r.set_marks)
    assert f.streams == []
    assert peak <= bound * n, peak / n
