import json
import struct

import pytest

from plcpbits import PlcpBits, StreamFactory
from plcpbits.cli import ingest, main
from plcpbits.errors import EmptyInput
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
    assert back.ranks == (4, 2, 0) and back.rate == 3 and back.n == 7
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


@pytest.mark.parametrize("ranks", [(4, 2, 7), (4, 2, 2)])
def test_build_rejects_bad_sisa_ranks(tmp_path, capsys, ranks):
    pre = indexed_banana(tmp_path, capsys)
    write_sisa(pre + ".sisa", SampledIsa(rate=3, n=7, ranks=ranks), 4)
    code, _, err = run(capsys, "build", pre + ".bwt", pre + ".sisa",
                       "-o", pre + ".plcp")
    assert code == 3 and "rank" in err


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


def test_pipeline_linear(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"banana")
    pre = str(tmp_path / "t")
    assert run(capsys, "index", str(src), "--rate", "3",
               "--output", pre)[0] == 0
    for strategy in ["internal", "external", "hybrid"]:
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


def test_strategy_outputs_byte_identical(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"mississippi")
    pre = str(tmp_path / "t")
    run(capsys, "index", str(src), "--output", pre)
    blobs = set()
    for strategy in ["internal", "external", "hybrid"]:
        out = pre + ".%s.plcp" % strategy
        assert run(capsys, "build", pre + ".bwt", pre + ".sisa", "-o", out,
                   "--strategy", strategy)[0] == 0
        blobs.add(open(out, "rb").read())
    assert len(blobs) == 1


def test_tampered_bits_fail_verification(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_bytes(b"banana")
    pre = str(tmp_path / "t")
    run(capsys, "index", str(src), "--output", pre)
    run(capsys, "build", pre + ".bwt", pre + ".sisa", "-o", pre + ".plcp")
    blob = bytearray(open(pre + ".plcp", "rb").read())
    blob[-1] ^= 0x03  # swap the final bit pair
    open(pre + ".plcp", "wb").write(blob)
    code, _, err = run(capsys, "verify", str(src), pre + ".plcp")
    assert code in (2, 3)  # mismatch, or rejected for a broken one-count


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "index", str(tmp_path / "missing.txt"))[0] == 1
    src = tmp_path / "e.txt"
    src.write_bytes(b"")
    assert run(capsys, "index", str(src))[0] == 1


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
