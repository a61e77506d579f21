import json
import random
import struct
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from plcpbits import PlcpBits, StreamFactory, reorder, rounds
from plcpbits.cli import ingest, main
from plcpbits.errors import CircularPowerInput, EmptyInput, PlcpError
from plcpbits.formats import (read_bwt, read_plcp, read_sisa, write_bwt,
                              write_plcp, write_sisa)
from plcpbits.textcore import Bwt, SampledIsa

from conftest import banana


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ingest_appends_terminator():
    text, remap = ingest(b"banana", circular=False)
    assert list(text.symbols) == [2, 1, 3, 1, 3, 1, 0]
    assert remap["terminator_appended"]


def test_ingest_existing_terminator():
    text, remap = ingest(b"banana\x00", circular=False)
    assert list(text.symbols) == [2, 1, 3, 1, 3, 1, 0]
    assert not remap["terminator_appended"]


def test_ingest_empty():
    with pytest.raises(EmptyInput):
        ingest(b"", circular=False)


def test_bwt_format_roundtrip(tmp_path):
    fx = banana()
    path = str(tmp_path / "x.bwt")
    write_bwt(path, fx.bwt)
    back = read_bwt(path)
    assert back.to_list() == fx.bwt.to_list()
    assert back.sigma == 4 and not back.circular


def test_sisa_format_roundtrip(tmp_path):
    path = str(tmp_path / "x.sisa")
    sisa = SampledIsa(rate=3, n=7, ranks=(4, 2, 0))
    write_sisa(path, sisa, 4)
    back, sigma, circ = read_sisa(path)
    assert tuple(back.ranks) == (4, 2, 0) and back.rate == 3 and back.n == 7
    assert sigma == 4 and not circ


def test_plcp_format_roundtrip(tmp_path):
    path = str(tmp_path / "x.plcp")
    k = PlcpBits([int(c) for c in "0000111101"], 5, shift=4)
    write_plcp(path, k, 2, circular=True)
    back, _, circ = read_plcp(path)
    assert circ and back.shift == 4
    assert back.bit_string() == "0000111101"


def test_bad_magic(tmp_path, capsys):
    path = tmp_path / "x.plcp"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
    code, _, err = run(capsys, "decode", str(path), "--all")
    assert code == 3 and "magic" in err


def indexed_banana(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"banana")
    pre = str(tmp_path / "t")
    assert run(capsys, "index", str(src), "--rate", "3",
               "--output", pre)[0] == 0
    return pre


def test_banana_plcp_bytes(tmp_path, capsys):
    pre = indexed_banana(tmp_path, capsys)
    assert run(capsys, "build", pre + ".bwt", pre + ".sisa",
               "-o", pre + ".plcp")[0] == 0
    # header (magic, version 1, flags 0, n 7, sigma 4), shift 0, then
    # K = 01000011110101 packed least-significant bit first
    assert Path(pre + ".plcp").read_bytes() == (
        b"PLCPK__1" b"\x01\x00" b"\x00\x00" b"\x07\x00\x00\x00\x00\x00\x00\x00"
        b"\x04\x00\x00\x00" b"\x00\x00\x00\x00\x00\x00\x00\x00" b"\xc2\x2b")


def header(magic, n, sigma, flags=0):
    return struct.pack("<8sHHQI", magic, 1, flags, n, sigma)


@pytest.mark.parametrize("flags", [0, 1])
def test_empty_artifacts_rejected(tmp_path, capsys, flags):
    pre = str(tmp_path / "e")
    with open(pre + ".bwt", "wb") as fh:
        fh.write(header(b"PLCPBWT1", 0, 4, flags))
    with open(pre + ".sisa", "wb") as fh:
        fh.write(header(b"PLCPISA1", 0, 4, flags) + struct.pack("<I", 1))
    for strategy in ("external", "hybrid"):
        code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                           "-o", pre + ".plcp", "--strategy", strategy)
        assert code == 3 and "empty" in err
    code, _, err = run(capsys, "period", pre + ".bwt")
    assert code == 3 and "empty" in err


@pytest.mark.parametrize("n, sigma, what", [
    (7, 257, "alphabet"), (7, 0, "alphabet"), (1 << 62, 4, "truncated"),
], ids=["sigma257", "sigma0", "n2^62"])
def test_malformed_bwt_header(tmp_path, capsys, n, sigma, what):
    pre = indexed_banana(tmp_path, capsys)
    with open(pre + ".bwt", "wb") as fh:
        fh.write(header(b"PLCPBWT1", n, sigma) + bytes(7))
    for strategy in ("external", "hybrid"):
        code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                           "-o", pre + ".plcp", "--strategy", strategy)
        assert code == 3 and what in err
    code, _, err = run(capsys, "period", pre + ".bwt")
    assert code == 3 and what in err


def test_sisa_payload_beyond_file_rejected(tmp_path, capsys):
    pre = indexed_banana(tmp_path, capsys)
    with open(pre + ".sisa", "wb") as fh:
        fh.write(header(b"PLCPISA1", 1 << 62, 4) + struct.pack("<I", 1))
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp")
    assert code == 3 and "truncated" in err


def test_build_rejects_sisa_whose_cursors_overflow(tmp_path, capsys):
    """The walk packs a cursor as rank * m + sample, m the sample count:
    a header whose n * m exceeds 2**64 ends in exit code 3."""
    pre = indexed_banana(tmp_path, capsys)
    m, rate = 65_537, 2**32 - 1
    with open(pre + ".sisa", "wb") as fh:
        fh.write(header(b"PLCPISA1", m * rate, 4) + struct.pack("<I", rate))
        fh.write(struct.pack("<%dQ" % m, *range(m)))
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp")
    assert code == 3 and err.startswith("error: ") and "exceeds 2**64" in err


def test_read_sisa_heap_per_sample(tmp_path):
    """read_sisa reads the samples a piece at a time into one array of the
    narrowest type, and sorts their cursors a piece at a time: at m = 2 *
    10**4 samples it peaks at most 24 B/sample of Python heap (17.4 here;
    48.7 with the payload read whole, copied twice and sorted as a
    list)."""
    n, rate = 80_000, 4
    ranks = random.Random(1).sample(range(n), n // rate)
    path = str(tmp_path / "x.sisa")
    write_sisa(path, SampledIsa(rate=rate, n=n, ranks=ranks), 5)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sisa = read_sisa(path)[0]
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 24 * len(ranks), peak / len(ranks)
    assert list(sisa.ranks) == ranks
    assert list(sisa.cursors) == sorted(r * len(ranks) + s
                                        for s, r in enumerate(ranks))


@pytest.mark.parametrize("ranks", [(4, 2, 7), (4, 2, 2)])
def test_build_rejects_bad_sisa_ranks(tmp_path, capsys, ranks):
    pre = indexed_banana(tmp_path, capsys)
    write_sisa(pre + ".sisa", SampledIsa(rate=3, n=7, ranks=ranks), 4)
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp")
    assert code == 3 and "rank" in err


@pytest.mark.parametrize("options", [
    ["--strategy", "external"], ["--strategy", "hybrid"],
    ["--strategy", "hybrid", "--cutoff", "1"],
], ids=["external", "hybrid", "hybrid-cutoff1"])
def test_build_rejects_swapped_sisa_samples(tmp_path, capsys, options):
    """Distinct in-range ranks that are not the text's ISA samples."""
    pre = indexed_banana(tmp_path, capsys)
    assert tuple(read_sisa(pre + ".sisa")[0].ranks) == (4, 2, 0)
    write_sisa(pre + ".sisa", SampledIsa(rate=3, n=7, ranks=(2, 4, 0)), 4)
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp", *options)
    assert code == 3 and "samples do not match" in err


@pytest.mark.parametrize("circular", [False, True],
                         ids=["linear", "circular"])
@pytest.mark.parametrize("options", [
    ["--strategy", "external"], ["--strategy", "hybrid"],
    ["--strategy", "hybrid", "--cutoff", "1"],
], ids=["external", "hybrid", "hybrid-cutoff1"])
def test_build_rejects_lf_of_several_cycles(tmp_path, capsys, options,
                                            circular):
    """LF has the cycles (0), (1) and (2 3); the samples at ranks 3 and 2
    pass the walk's check on them, but the walk misses ranks 0 and 1."""
    pre = str(tmp_path / "c")
    write_bwt(pre + ".bwt", Bwt([0, 1, 2, 1], 3, circular=circular))
    write_sisa(pre + ".sisa", SampledIsa(rate=3, n=4, ranks=(3, 2)), 3,
               circular=circular)
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp", *options)
    # the circular anchor walk from rank 0 stops the build first
    assert code == 3
    assert ("meets no sample" if circular else "not one cycle") in err


def rotated_mississippi(tmp_path, capsys):
    """LF stays one cycle and every window check passes, but rank 0, the
    terminator's suffix, no longer sits at the last position."""
    src = tmp_path / "m.txt"
    src.write_bytes(b"mississippi")
    pre = str(tmp_path / "m")
    assert run(capsys, "index", str(src), "--rate", "1",
               "--output", pre)[0] == 0
    sisa, sigma, _ = read_sisa(pre + ".sisa")
    ranks = sisa.ranks[3:] + sisa.ranks[:3]
    write_sisa(pre + ".sisa", SampledIsa(rate=1, n=sisa.n, ranks=ranks),
               sigma)
    return pre, "rank 0 is at position"


def two_zeros(tmp_path, capsys):
    """The linear BWT of 0 1 1 0, with its true samples: one LF cycle
    whose text holds the terminator twice."""
    pre = str(tmp_path / "z")
    write_bwt(pre + ".bwt", Bwt([1, 0, 1, 0], 2))
    write_sisa(pre + ".sisa", SampledIsa(rate=1, n=4, ranks=(1, 3, 2, 0)), 2)
    return pre, "one 0, not 2"


@pytest.mark.parametrize("artifacts", [rotated_mississippi, two_zeros],
                         ids=["rotated-samples", "two-zeros"])
@pytest.mark.parametrize("options", [
    ["--strategy", "external"], ["--strategy", "hybrid"],
    ["--strategy", "hybrid", "--cutoff", "0"],
], ids=["external", "hybrid", "hybrid-cutoff0"])
def test_build_rejects_artifacts_of_no_linear_text(tmp_path, capsys,
                                                   options, artifacts):
    pre, message = artifacts(tmp_path, capsys)
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp", *options)
    assert code == 3 and message in err


def test_build_rejects_negative_cutoff(tmp_path, capsys):
    pre = indexed_banana(tmp_path, capsys)
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp", "--strategy", "hybrid",
                       "--cutoff", "-3")
    assert code == 1 and "cutoff -3 is negative" in err


@pytest.mark.parametrize("strategy", ["external"])
def test_build_rejects_cutoff_without_hybrid(tmp_path, capsys, strategy):
    pre = indexed_banana(tmp_path, capsys)
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp", "--strategy", strategy,
                       "--cutoff", "3")
    assert code == 1 and "hybrid strategy only" in err
    assert not Path(pre + ".plcp").exists()


def test_default_output_strips_only_a_trailing_bwt(tmp_path, capsys):
    """Without -o the .plcp goes beside the BWT artifact, named after it."""
    folder = tmp_path / "runs.bwt"
    folder.mkdir()
    pre = indexed_banana(folder, capsys)
    assert run(capsys, "build", pre + ".bwt", pre + ".sisa")[0] == 0
    assert Path(pre + ".plcp").exists()
    Path(pre + ".bwt").rename(pre + ".bin")
    assert run(capsys, "build", pre + ".bin", pre + ".sisa")[0] == 0
    assert Path(pre + ".bin.plcp").exists()
    assert not (tmp_path / "runs.plcp").exists()


@pytest.mark.parametrize("keep", [False, True], ids=["cleanup", "keep-temp"])
def test_failed_build_removes_temp_dir(tmp_path, capsys, monkeypatch, keep):
    pre = indexed_banana(tmp_path, capsys)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    one_round = rounds._round
    calls = []

    def fail_in_second_round(*args):
        calls.append(args)
        if len(calls) == 2:
            raise PlcpError("injected failure")
        return one_round(*args)
    monkeypatch.setattr(rounds, "_round", fail_in_second_round)
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp", *(["--keep-temp"] if keep else []))
    assert code == 1 and "injected failure" in err
    left = list(temp.glob("plcp-run-*"))
    if keep:
        # the kept directory holds the streams of the failed round
        assert len(left) == 1 and any(left[0].iterdir())
    else:
        assert left == []


@pytest.mark.parametrize("suffix", [".bwt", ".sisa", ".plcp"])
def test_trailing_bytes_rejected(tmp_path, capsys, suffix):
    pre = indexed_banana(tmp_path, capsys)
    build = ["build", pre + ".bwt", pre + ".sisa", "-o", pre + ".plcp"]
    assert run(capsys, *build)[0] == 0
    with open(pre + suffix, "ab") as fh:
        fh.write(b"\x00")
    if suffix == ".plcp":
        code, _, err = run(capsys, "decode", pre + ".plcp", "--all")
    else:
        code, _, err = run(capsys, *build)
    assert code == 3 and "trailing" in err


@pytest.mark.parametrize("shift", [7, 10**6])
def test_plcp_shift_out_of_range_rejected(tmp_path, capsys, shift):
    pre = indexed_banana(tmp_path, capsys)
    path = pre + ".plcp"
    assert run(capsys, "build", pre + ".bwt", pre + ".sisa", "-o", path)[0] == 0
    with open(path, "r+b") as fh:
        fh.seek(24)  # the shift follows the 24-byte header; n is 7
        fh.write(struct.pack("<Q", shift))
    code, _, err = run(capsys, "decode", path, "--all")
    assert code == 3 and "shift" in err


def test_plcp_shift_on_a_linear_text_rejected(tmp_path, capsys):
    """Only a circular artifact is rotated: a linear one with a shift in
    range is malformed, not decoded as rotated values."""
    pre = indexed_banana(tmp_path, capsys)
    path = pre + ".plcp"
    assert run(capsys, "build", pre + ".bwt", pre + ".sisa", "-o", path)[0] == 0
    with open(path, "r+b") as fh:
        fh.seek(24)
        fh.write(struct.pack("<Q", 3))
    code, _, err = run(capsys, "decode", path, "--all")
    assert code == 3 and "linear" in err
    code, _, err = run(capsys, "verify", str(tmp_path / "t.txt"), path)
    assert code == 3 and "linear" in err


@pytest.mark.parametrize("text, flags", [(b"banana", ()),
                                         (b"abbab", ("--circular",))])
def test_walks_end_within_n_passes(tmp_path, capsys, monkeypatch, text,
                                   flags):
    src = tmp_path / "t.txt"
    src.write_bytes(text)
    pre = str(tmp_path / "t")
    assert run(capsys, "index", str(src), "--rate", "1000", "--output", pre,
               *flags)[0] == 0
    n = read_bwt(pre + ".bwt").n
    calls = Counter()  # _lf_pass calls per calling frame, one frame a walk

    def counted(*args):
        calls[sys._getframe(1)] += 1
        return lf_pass(*args)
    lf_pass = reorder._lf_pass
    monkeypatch.setattr(reorder, "_lf_pass", counted)
    for options in (["--strategy", "external"], ["--strategy", "hybrid"],
                    ["--strategy", "hybrid", "--cutoff", "1"]):
        code, out, _ = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                           "-o", pre + ".plcp", "--verify-after-build",
                           *options)
        assert code == 0 and "verified" in out
    assert calls and max(calls.values()) <= n + 1


def test_pipeline_linear(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"banana")
    pre = str(tmp_path / "t")
    assert run(capsys, "index", str(src), "--rate", "3",
               "--output", pre)[0] == 0
    for strategy in ["external", "hybrid"]:
        code, out, _ = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                           "-o", pre + ".plcp", "--strategy", strategy,
                           "--verify-after-build")
        assert code == 0 and "verified" in out
        code, out, _ = run(capsys, "decode", pre + ".plcp", "--all")
        assert code == 0 and out.strip() == "0 3 2 1 0 0 0"
    assert run(capsys, "verify", str(src), pre + ".plcp")[0] == 0
    remap = json.loads((tmp_path / "t.remap.json").read_text())
    assert remap["terminator_appended"]


def test_pipeline_circular(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_bytes(b"abbab")
    pre = str(tmp_path / "c")
    assert run(capsys, "index", str(src), "--circular", "--rate", "1",
               "--output", pre)[0] == 0
    assert run(capsys, "build", pre + ".bwt", pre + ".sisa",
               "-o", pre + ".plcp")[0] == 0
    code, out, _ = run(capsys, "decode", pre + ".plcp", "--all")
    assert code == 0 and out.strip() == "2 1 0 0 3"
    assert run(capsys, "verify", str(src), pre + ".plcp")[0] == 0
    code, out, _ = run(capsys, "period", pre + ".bwt")
    assert code == 0 and out.strip() == "period 5 exponent 1"


def test_circular_power_is_shrunk(tmp_path, capsys):
    src = tmp_path / "p.txt"
    src.write_bytes(b"aabaab")
    pre = str(tmp_path / "p")
    code, _, err = run(capsys, "index", str(src), "--circular",
                       "--output", pre)
    assert code == 0 and "power" in err
    assert read_bwt(pre + ".bwt").to_list() == [1, 0, 0]


@pytest.mark.parametrize("raw", [b"a", b"aaaa"])
def test_circular_root_of_one_symbol_is_refused(tmp_path, capsys, raw):
    """A circular input whose primitive root is one symbol has no build:
    ``index`` refuses it and writes no artifact."""
    with pytest.raises(CircularPowerInput, match="length above one"):
        ingest(raw, circular=True)
    src = tmp_path / "a.txt"
    src.write_bytes(raw)
    code, _, err = run(capsys, "index", str(src), "--circular",
                       "--output", str(tmp_path / "a"))
    assert code == 1 and "length above one" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]


def test_strategy_outputs_byte_identical(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"mississippi")
    pre = str(tmp_path / "t")
    run(capsys, "index", str(src), "--output", pre)
    blobs = set()
    for strategy in ["external", "hybrid"]:
        out = pre + ".%s.plcp" % strategy
        assert run(capsys, "build", pre + ".bwt", pre + ".sisa", "-o", out,
                   "--strategy", strategy)[0] == 0
        blobs.add(Path(out).read_bytes())
    assert len(blobs) == 1


def test_tampered_bits_fail_verification(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"banana")
    pre = str(tmp_path / "t")
    run(capsys, "index", str(src), "--output", pre)
    run(capsys, "build", pre + ".bwt", pre + ".sisa", "-o", pre + ".plcp")
    blob = bytearray(Path(pre + ".plcp").read_bytes())
    blob[-1] ^= 0x03  # swap the final bit pair
    Path(pre + ".plcp").write_bytes(blob)
    code, _, err = run(capsys, "verify", str(src), pre + ".plcp")
    assert code in (2, 3)  # mismatch, or rejected for a broken one-count


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "index", str(tmp_path / "missing.txt"))[0] == 1
    src = tmp_path / "e.txt"
    src.write_bytes(b"")
    assert run(capsys, "index", str(src))[0] == 1
    # the wavelet-tree rounds are a test oracle, not a strategy
    pre = indexed_banana(tmp_path, capsys)
    assert run(capsys, "build", pre + ".bwt", pre + ".sisa", "-o",
               pre + ".plcp", "--strategy", "internal")[0] == 1
    assert not Path(pre + ".plcp").exists()


def test_keep_temp(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"banana")
    pre = str(tmp_path / "t")
    run(capsys, "index", str(src), "--output", pre)
    code, out, _ = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp", "--keep-temp")
    assert code == 0
    import os
    kept = out.splitlines()[0].split()[-1]
    assert os.path.isdir(kept)
    import shutil
    shutil.rmtree(kept)
