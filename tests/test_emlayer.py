from array import array

import pytest

from plcpbits import emlayer
from plcpbits.emlayer import PART, StreamFactory, pack, sorted_array, unpack
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
    items = [1 << 8 | ord("a"), ord("b"), 1 << 8 | ord("c"), ord("d")]
    s = f.from_items(items)
    assert list(s.items()) == items
    assert list(s.rewind().items()) == items
    f.cleanup()


def test_file_backend_reuses_released_files(tmp_path):
    f = StreamFactory(directory=str(tmp_path), capacity=3)
    old = f.from_items(range(10), "old")
    (path,) = tmp_path.iterdir()
    inode = path.stat().st_ino
    f.release(old)
    f.release(old)  # a second release hands nothing over
    new = f.stream("new")  # from_items would hand one item on in memory
    new.append(1)
    new.finish()
    (path,) = tmp_path.iterdir()
    assert path.name.startswith("new") and path.stat().st_ino == inode
    assert list(new.items()) == [1]
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


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_chunks_are_bytes_or_typed_arrays(tmp_path, backend):
    """Every chunk comes back as bytes or an unsigned array: items gathered
    in a list as the narrowest array that holds them, an array or bytes
    handed in as one piece cut as it was given.  On temp files a stream
    holds exactly itemsize * len bytes a chunk."""
    assert not hasattr(emlayer, "pickle")
    directory = str(tmp_path) if backend == "file" else None
    f = StreamFactory(directory, capacity=4)
    top = {"B": 255, "H": 65535, "I": 2 ** 32 - 1, "Q": 2 ** 64 - 1}
    written = {}  # stream name: the chunks it should give back
    for code, most in top.items():
        items = [x for x in (most, 0, 1, most // 3, 2 ** 32, 7) if x <= most]
        cuts = [items[i : i + 4] for i in range(0, len(items), 4)]
        as_list = f.stream("list" + code)
        as_list.extend(items)
        written[as_list] = [array(emlayer.typecode(max(c)), c) for c in cuts]
        as_array = f.stream("array" + code)
        as_array.append_chunk(array(code, items))
        written[as_array] = [array(code, c) for c in cuts]
    # lanes that widen midway, as PD's do once a count passes 255
    widening = f.stream("widening")
    for lane in (array("B", [1, 2, 3, 255]), array("H", [256, 0, 3, 9]),
                 array("H", [65535])):
        widening.append_chunk(lane)
    written[widening] = [array("B", [1, 2, 3, 255]),
                         array("H", [256, 0, 3, 9]), array("H", [65535])]
    raw = f.stream("bytes")
    raw.append_chunk(b"\x00\x01\xff")
    raw.append_chunk(b"\x07\x08")
    written[raw] = [b"\x00\x01\xff\x07", b"\x08"]
    for s, chunks in written.items():
        s.finish()
        got = list(s.chunks())
        assert [(type(c), getattr(c, "typecode", None), list(c))
                for c in got] == [(type(c), getattr(c, "typecode", None),
                                   list(c)) for c in chunks], s.name
        assert list(s.rewind().items()) == [x for c in chunks for x in c]
        if directory:
            (path,) = tmp_path.glob(s.name + "-*")
            assert path.stat().st_size == sum(
                len(c) * getattr(c, "itemsize", 1) for c in chunks), s.name
    f.release(*written)
    f.cleanup()


def test_meter_tracks_peaks():
    f = StreamFactory()
    f.meter.note("x", 5)
    f.meter.note("x", 3)
    f.meter.note("y", 1)
    assert f.meter.peak("x") == 5
    assert f.meter.peak("missing") == 0


@pytest.mark.parametrize("m", [0, 1, PART + 1, 9 * PART + 3, 70 * PART])
def test_sorted_array_matches_sorted(rng, m):
    """Sorted ``PART`` at a time and merged up to eight runs at a time,
    over as many as three levels, items come out as ``sorted`` gives
    them, repeats too."""
    for top in (10 * m, 5):
        items = [rng.randrange(top + 1) for _ in range(m)]
        assert sorted_array(iter(items), "Q") == array("Q", sorted(items))


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_widest_is_the_type_of_the_widest_chunk(tmp_path, backend):
    """``widest`` reads the chunks' types, not their items: "B" for bytes
    and for a stream with no chunk."""
    f = StreamFactory(str(tmp_path) if backend == "file" else None,
                      capacity=4)
    lanes = f.stream("lanes")
    for lane in (array("B", [1]), array("I", [70000]), array("H", [3])):
        lanes.append_chunk(lane)
    raw = f.stream("bytes")
    raw.append_chunk(b"\x00\x01\xff")
    listed = f.stream("list")
    listed.extend([1, 2, 3, 4, 300])
    assert [s.finish().widest() for s in (lanes, raw, listed)] == \
        ["I", "B", "H"]
    assert f.stream("empty").finish().widest() == "B"
    assert f.wrap(array("H", [1, 2])).widest() == "H"
    f.release(*f.streams)
