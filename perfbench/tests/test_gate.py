"""The benchmark's own checks: every metric is reported, and the gate fires.

Run from the repository root:

    python3 -m pytest perfbench/tests

Each workload runs at a few hundred symbols, so the whole file takes
seconds.  The corrupted-decode and seek cases change the package only
inside this process, through the benchmark's own patching.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout_sources()

import probe  # noqa: E402
import workloads  # noqa: E402
from plcpbits.emlayer import EmStream  # noqa: E402
from plcpbits.succinct import PlcpBits  # noqa: E402

TINY_N = {"dna-cli-file": 400, "repeats-hybrid-mem": 401,
          "bytes-circular-sparse": 300}
WORKLOADS = sorted(TINY_N)


def tiny(name, trace):
    return run.run_workload(name, seed=7, seconds=0.05, trace=trace,
                            n=TINY_N[name])


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == probe.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.SHAPES)


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_present_and_correct(name):
    result = tiny(name, trace=0)
    assert result["correct"] and result["failed"] == 0
    got = values(result)
    assert set(got) == set(run.END_TO_END_UNITS)
    assert all(v is not None and v > 0 for v in got.values()), got


@pytest.mark.parametrize("name", WORKLOADS)
def test_per_layer_metrics_present(name):
    result = tiny(name, trace=1)
    got = values(result)
    assert set(got) == set(probe.PER_LAYER_UNITS)
    assert got["fail_ratio"] == 0
    assert got["emlayer.non_sequential"] == 0
    assert got["emlayer.meter_peak_items.round_state"] == 8
    assert got["rounds.count"] > 0 and got["reorder.lf_passes"] > 0
    assert got["succinct.decode_calls"] == run.DECODE_BATCH
    layer = {"repeats-hybrid-mem": "hybrid.s",
             "bytes-circular-sparse": "circular.anchor_s",
             "dna-cli-file": "formats.read_bwt_s"}[name]
    assert got[layer] > 0


def test_corrupted_decode_fails_the_gate(monkeypatch):
    original = PlcpBits.decode

    def off_by_one_at_zero(self, i):
        return original(self, i) + (i == 0)
    monkeypatch.setattr(PlcpBits, "decode", off_by_one_at_zero)
    untraced = tiny("repeats-hybrid-mem", trace=0)
    assert not untraced["correct"] and untraced["failed"] > 0
    assert values(tiny("repeats-hybrid-mem", trace=1))["fail_ratio"] > 0


def test_a_seek_fails_the_build(monkeypatch):
    original = EmStream.rewind

    def rewind_by_seeking(self):
        result = original(self)
        self.seek(0)
        return result
    monkeypatch.setattr(EmStream, "rewind", rewind_by_seeking)
    result = tiny("bytes-circular-sparse", trace=0)
    assert not result["correct"]
    # every build seeks; decode queries, two samples a round, are unaffected
    builds = result["failed"]
    queries = 2 * run.BATCHES_PER_SAMPLE * run.DECODE_BATCH
    assert result["attempted"] == builds + (builds - 1) * queries
