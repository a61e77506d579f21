import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import banana
from plcpbits.emlayer import (StreamFactory, bin_un_bucket_sort, em_lsd_sort,
                              em_stable_sort_by_symbol, inverse_radix_sort)
from plcpbits.errors import LengthMismatch, PlcpError


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


def test_file_backend(tmp_path):
    f = StreamFactory(directory=str(tmp_path), capacity=3)
    s = f.from_items([(1, "a"), (0, "b"), (1, "c"), (0, "d")])
    assert list(s.items()) == [(1, "a"), (0, "b"), (1, "c"), (0, "d")]
    out = em_stable_sort_by_symbol(s.rewind(), 2, f)
    assert list(out.items()) == [(0, "b"), (0, "d"), (1, "a"), (1, "c")]
    f.cleanup()


def test_stable_sort_examples():
    f = StreamFactory()
    pairs = [(2, "x"), (1, "y"), (2, "z"), (0, "w")]
    out = em_stable_sort_by_symbol(f.wrap(pairs), 3, f)
    assert list(out.items()) == [(0, "w"), (1, "y"), (2, "x"), (2, "z")]
    done = [(0, "a"), (1, "b"), (2, "c")]
    assert list(em_stable_sort_by_symbol(f.wrap(done), 3, f).items()) == done


def test_stable_sort_banana_ranks():
    fx = banana()
    f = StreamFactory()
    pairs = list(zip(fx.bwt.to_list(), range(7)))
    out = list(em_stable_sort_by_symbol(f.wrap(pairs), 4, f).items())
    assert [sym for sym, _ in out] == sorted(fx.bwt.to_list())
    # payloads within a symbol keep rank order
    for sym in range(4):
        payloads = [r for s, r in out if s == sym]
        assert payloads == sorted(payloads)


def test_bin_un_bucket_sort_example():
    f = StreamFactory()
    keys = f.wrap([1, 0, 1, 0])
    data = f.wrap(["q", "s", "p", "r"])
    assert list(bin_un_bucket_sort(keys, data, f).items()) == \
        ["p", "q", "r", "s"]
    assert list(bin_un_bucket_sort(
        f.wrap([0, 0, 0]), f.wrap([5, 6, 7]), f).items()) == [5, 6, 7]
    with pytest.raises(LengthMismatch):
        bin_un_bucket_sort(f.wrap([1]), f.wrap([1, 2]), f)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 60), st.sampled_from([2, 3, 7, 16]))
def test_inverse_radix_identity(seed, n, sigma):
    rng = random.Random(seed)
    keys = [rng.randrange(sigma) for _ in range(n)]
    data = list(range(n))
    f = StreamFactory(capacity=8)
    forward = em_stable_sort_by_symbol(f.wrap(list(zip(keys, data))), sigma, f)
    payloads = f.from_items(p for _, p in forward.rewind().items())
    back = inverse_radix_sort(f.wrap(keys), payloads, sigma, f)
    assert list(back.items()) == data
    assert f.total_non_sequential() == 0


def test_lsd_sort_is_stable(rng):
    f = StreamFactory(capacity=16)
    items = [(rng.randrange(200), i) for i in range(300)]
    out = list(em_lsd_sort(f.wrap(list(items)), 0, 8, f).items())
    assert out == sorted(items, key=lambda t: t[0])


def test_meter_tracks_peaks():
    f = StreamFactory()
    f.meter.note("x", 5)
    f.meter.note("x", 3)
    f.meter.note("y", 1)
    assert f.meter.peak("x") == 5
    assert f.meter.peak("missing") == 0
