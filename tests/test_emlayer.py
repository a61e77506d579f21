import pytest

from conftest import banana
from plcpbits.emlayer import StreamFactory, em_lsd_sort, pack, unpack
from plcpbits.errors import PlcpError


def test_stream_basics():
    f = StreamFactory(capacity=4)
    s = f.stream()
    s.extend(range(11))
    s.finish()
    assert list(s.items()) == list(range(11))
    assert list(s.items()) == []  # cursor stays at the end
    assert list(s.rewind().items()) == list(range(11))
    assert s.rewinds == 1
    assert len(s) == 11


def test_unfinished_stream_raises_plcp_error():
    s = StreamFactory().stream()
    s.append(1)
    with pytest.raises(PlcpError):
        s.rewind()
    with pytest.raises(PlcpError):
        s.seek(0)
    with pytest.raises(PlcpError):
        list(s.chunks())


def test_seek_counts_as_non_sequential():
    f = StreamFactory()
    s = f.from_items(range(5))
    s.seek(3)
    assert list(s.items()) == [3, 4]
    assert f.total_non_sequential() == 1
    s.rewind()
    f.release(s)  # a released stream still counts
    assert f.total_non_sequential() == 1 and f.max_rewinds() == 1


def test_file_backend(tmp_path):
    f = StreamFactory(directory=str(tmp_path), capacity=3)
    s = f.from_items([(1, "a"), (0, "b"), (1, "c"), (0, "d")])
    assert list(s.items()) == [(1, "a"), (0, "b"), (1, "c"), (0, "d")]
    out = em_lsd_sort(s.rewind(), 0, 1, f)
    assert list(out.items()) == [(0, "b"), (0, "d"), (1, "a"), (1, "c")]
    f.cleanup()


def test_stable_sort_examples():
    f = StreamFactory()
    pairs = [(2, "x"), (1, "y"), (2, "z"), (0, "w")]
    out = em_lsd_sort(f.wrap(pairs), 0, 2, f)
    assert list(out.items()) == [(0, "w"), (1, "y"), (2, "x"), (2, "z")]
    done = [(0, "a"), (1, "b"), (2, "c")]
    assert list(em_lsd_sort(f.wrap(done), 0, 2, f).items()) == done


def test_stable_sort_banana_ranks():
    fx = banana()
    f = StreamFactory()
    pairs = list(zip(fx.bwt.to_list(), range(7)))
    out = list(em_lsd_sort(f.wrap(pairs), 0, 2, f).items())
    assert [sym for sym, _ in out] == sorted(fx.bwt.to_list())
    # payloads within a symbol keep rank order
    for sym in range(4):
        payloads = [r for s, r in out if s == sym]
        assert payloads == sorted(payloads)


def test_lsd_sort_is_stable(rng):
    f = StreamFactory(capacity=16)
    items = [(rng.randrange(200), i) for i in range(300)]
    out = list(em_lsd_sort(f.wrap(list(items)), 0, 8, f).items())
    assert out == sorted(items, key=lambda t: t[0])


@pytest.mark.parametrize("capacity", [7, 4096])
def test_lsd_sort_one_chunk_matches_bucket_passes(rng, capacity):
    # 12-bit keys take two bucket passes over several chunks, or one
    # in-memory sort when the stream is a single chunk
    items = [(rng.randrange(1 << 12), i) for i in range(500)]
    f = StreamFactory(capacity=capacity)
    opened = []
    stream = f.stream
    f.stream = lambda *args: opened.append(args) or stream(*args)
    out = em_lsd_sort(f.from_items(items), 0, 12, f)
    assert list(out.items()) == sorted(items, key=lambda t: t[0])
    # one chunk in and out is handed on in memory; more chunks open the
    # input, one bucket per digit value and the output
    assert (len(opened) == 0) == (capacity > len(items))


def test_file_backend_reuses_released_files(tmp_path):
    f = StreamFactory(directory=str(tmp_path), capacity=3)
    old = f.from_items(range(10), "old")
    (path,) = tmp_path.iterdir()
    inode = path.stat().st_ino
    f.release(old)
    f.release(old)  # a second release hands nothing over
    new = f.stream("new")  # from_items would hand one item on in memory
    new.append(b"\x01")
    new.finish()
    (path,) = tmp_path.iterdir()
    assert path.name.startswith("new") and path.stat().st_ino == inode
    assert list(new.items()) == [b"\x01"]
    f.release(new)
    assert path.stat().st_size == 0
    f.cleanup()  # also drops the emptied files of a directory it does not own
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("capacity", [1, 3, 8, 64])
def test_bit_streams_round_trip(rng, tmp_path, capacity):
    """A bit stream gives back the 0/1 bytes it was handed, as bytes or
    as packed words, in chunks of ``capacity`` ranks, whether it was
    written as bytes or as words; on temp files each chunk takes
    (capacity + 7) // 8 bytes."""
    for length in [*range(21), 65]:
        rand = [rng.randrange(2) for _ in range(length)]
        for marks in ([0] * length, [1] * length, rand[:-1] + [1],
                      rand[:-1] + [0]):
            marks = bytes(marks[:length])
            word = pack(marks)
            assert word == int("".join(map(str, reversed(marks))) or "0", 2)
            assert unpack(word, length) == marks
            for directory in (None, str(tmp_path)):
                f = StreamFactory(directory, capacity=capacity)
                by_bytes, by_words = f.bits("a"), f.bits("b")
                cuts = sorted(rng.sample(range(length + 1),
                                         min(3, length + 1)))
                for lo, hi in zip([0, *cuts], [*cuts, length]):
                    by_bytes.append_chunk(marks[lo:hi])
                    by_words.append_word(pack(marks[lo:hi]), hi - lo)
                widths = [min(capacity, length - lo)
                          for lo in range(0, length, capacity)]
                for s in (by_bytes.finish(), by_words.finish()):
                    assert len(s) == length
                    assert b"".join(s.chunks()) == marks
                    words = list(s.rewind().words())
                    assert [w for _, w in words] == widths
                    assert [unpack(*w) for w in words] == \
                        [marks[lo : lo + capacity]
                         for lo in range(0, length, capacity)]
                    assert list(s.rewind().items()) == list(marks)
                if directory:
                    sizes = [p.stat().st_size for p in tmp_path.iterdir()]
                    assert sizes == [sum((w + 7) // 8 for w in widths)] * 2
                f.release(by_bytes, by_words)
                f.cleanup()


def test_meter_tracks_peaks():
    f = StreamFactory()
    f.meter.note("x", 5)
    f.meter.note("x", 3)
    f.meter.note("y", 1)
    assert f.meter.peak("x") == 5
    assert f.meter.peak("missing") == 0
