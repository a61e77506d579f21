"""Outside-in tracing of plcpbits builds.

The package does no tracing of its own.  For the length of a traced run
the benchmark replaces module functions and class methods with wrappers
and puts the originals back afterwards.  A function that other modules
import by name (``run_rounds_external`` into ``cli``, ``hybrid`` and
``circular``, say) is replaced under every name that binds it.  Stream
volume is counted per chunk read and per finished stream, never per item.

A span is ``[name, start_ns, end_ns, parent index, phase]``; the phase
names the build (``build-3``) or the step (``load-0``, ``decode``) it
belongs to.  Spans stay in memory until the run writes them out.
"""

import contextlib
import functools
import json
import statistics
import sys
import time
import weakref
from collections import defaultdict

from plcpbits import (circular, cli, emlayer, formats, hybrid, reorder,
                      rounds)
from plcpbits.emlayer import EmStream, StreamFactory
from plcpbits.rounds import IntervalList
from plcpbits.succinct import PlcpBits, RsBitVector, WaveletTree

clock = time.perf_counter_ns

SORTS = frozenset(
    "emlayer." + f for f in ("em_stable_sort_by_symbol", "em_sort_symbols",
                             "em_lsd_sort", "inverse_radix_sort",
                             "prepare_inverse_levels")
)

# hand-fed MemoryMeter owners reported one by one
METER_OWNERS = ("round_state", "slice_buffer", "lf_counters", "isa_samples",
                "hybrid_sparse")


def _units():
    seconds = ("formats.read_bwt_s", "formats.read_sisa_s",
               "formats.write_plcp_s", "formats.read_plcp_s",
               "emlayer.sort_s", "rounds.s", "rounds.self_s",
               "rounds.symbol_sort_s", "rounds.inverse_sort_s",
               "rounds.pd_grow_s", "reorder.s", "reorder.position_counts_s",
               "reorder.emit_k_s", "reorder.cursor_sort_s", "reorder.self_s",
               "hybrid.s", "hybrid.rounds_s", "hybrid.annotate_s",
               "hybrid.reconstruct_s", "hybrid.kernel_s",
               "circular.detect_period_s", "circular.anchor_s",
               "succinct.rsbv_build_s", "succinct.wavelet_build_s",
               "trace.overhead_s")
    items = ("emlayer.items_written", "emlayer.items_read",
             "emlayer.meter_peak_items") + tuple(
        "emlayer.meter_peak_items." + owner for owner in METER_OWNERS)
    counts = ("emlayer.streams_opened", "emlayer.max_rewinds",
              "emlayer.non_sequential", "emlayer.sort_calls", "rounds.count",
              "rounds.queue_intervals_max", "reorder.cursors",
              "reorder.lf_passes", "hybrid.cutoff",
              "hybrid.irreducible_missing", "hybrid.sparse_ranks",
              "hybrid.kernel_calls", "hybrid.kernel_symbols",
              "succinct.decode_calls")
    units = dict.fromkeys(seconds, "s")
    units.update(dict.fromkeys(items, "items"))
    units.update(dict.fromkeys(counts, "count"))
    units["rounds.queue_gamma_bits_max"] = "bits"
    units["hybrid.sparse_share"] = "ratio"
    units["fail_ratio"] = "ratio"
    return units


# every metric a traced run prints, with its unit
PER_LAYER_UNITS = _units()


class Patcher:
    """Attribute and dict-entry replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def everywhere(self, original, replacement):
        """Rebind every plcpbits module name that refers to ``original``."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "plcpbits":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


class SeekCounter:
    """Counts ``EmStream.seek`` calls; a compliant build makes none."""

    def __init__(self, patcher):
        self.count = 0
        original = EmStream.seek

        def seek(stream, pos):
            self.count += 1
            return original(stream, pos)
        patcher.set(EmStream, "seek", seek)


def _maxed(counts, key, value):
    if value > counts[key]:
        counts[key] = value


class Tracer:
    """Spans around every layer boundary plus per-phase counters.

    Wrappers are in place only between ``install`` and ``uninstall``.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.factories = defaultdict(list)
        self.phase = "setup"
        self._stack = []
        self._patcher = Patcher()

    def install(self):
        self._install(self._patcher)

    def uninstall(self):
        self._patcher.undo()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts[self.phase], args, kwargs, result)
            return result
        return traced

    def _install(self, patcher):
        def function(module, attr, observe=None):
            original = getattr(module, attr, None)
            if original is None:
                print("perfbench: %s.%s is gone; its metrics read 0"
                      % (module.__name__, attr), file=sys.stderr)
                return
            name = module.__name__.split(".")[-1] + "." + attr
            patcher.everywhere(original, self._span(name, original, observe))

        def method(cls, attr, wrapper):
            patcher.set(cls, attr, wrapper(getattr(cls, attr)))

        for attr in ("read_bwt", "read_sisa", "write_plcp", "read_plcp"):
            function(formats, attr)
        for name in SORTS:
            function(emlayer, name.split(".", 1)[1])

        def on_rounds(c, args, kwargs, result):
            c["rounds.count"] += result.rounds
        function(rounds, "run_rounds_external", on_rounds)
        function(rounds, "pd_increment")

        def on_position_counts(c, args, kwargs, result):
            sisa = args[2] if len(args) > 2 else kwargs["sisa"]
            c["reorder.cursors"] += len(sisa.ranks)

        def on_lf_pass(c, args, kwargs, result):
            c["reorder.lf_passes"] += 1
        function(reorder, "reorder_pd")
        function(reorder, "position_counts", on_position_counts)
        function(reorder, "emit_k")
        function(reorder, "_lf_pass", on_lf_pass)
        function(reorder, "reconstruct_text")

        def on_hybrid(c, args, kwargs, result):
            c["hybrid.cutoff"] = (args[2] if len(args) > 2
                                  else kwargs["cutoff_rounds"])

        def on_missing(c, args, kwargs, result):
            c["hybrid.irreducible_missing"] += len(result)

        def on_annotate(c, args, kwargs, result):
            c["hybrid.sparse_ranks"] += len(args[2])

        def on_kernel(c, args, kwargs, result):
            c["hybrid.kernel_calls"] += 1
            c["hybrid.kernel_symbols"] += result
        function(hybrid, "hybrid_pd", on_hybrid)
        function(hybrid, "irreducible_missing", on_missing)
        function(hybrid, "annotate_positions", on_annotate)
        for key, kernel in list(hybrid.KERNELS.items()):
            patcher.set(hybrid.KERNELS, key,
                        self._span("hybrid.kernel", kernel, on_kernel))

        function(circular, "build_circular_plcp")
        function(circular, "detect_period")
        function(circular, "rank_to_position")

        method(RsBitVector, "__init__",
               lambda f: self._span("succinct.rsbv_build", f))
        method(WaveletTree, "__init__",
               lambda f: self._span("succinct.wavelet_build", f))
        method(PlcpBits, "decode", self._counted_decode)

        function(cli, "build_plcp")

        method(StreamFactory, "__init__", self._factory_init)
        method(StreamFactory, "stream", self._opened)
        method(StreamFactory, "wrap", self._opened)
        method(EmStream, "finish", self._finish)
        method(EmStream, "chunks", self._chunks)
        method(EmStream, "rewind", self._rewind)
        method(EmStream, "seek", self._seek)
        method(IntervalList, "__iter__", self._queue_iter)

    def _counted_decode(self, original):
        def decode(plcp, i):
            self.counts[self.phase]["succinct.decode_calls"] += 1
            return original(plcp, i)
        return decode

    def _factory_init(self, original):
        def __init__(factory, *args, **kwargs):
            original(factory, *args, **kwargs)
            self.factories[self.phase].append(factory)
        return __init__

    def _opened(self, original):
        def opened(factory, *args, **kwargs):
            self.counts[self.phase]["emlayer.streams_opened"] += 1
            return original(factory, *args, **kwargs)
        return opened

    def _finish(self, original):
        finished = weakref.WeakSet()

        def finish(stream):
            result = original(stream)
            if stream not in finished:
                finished.add(stream)
                self.counts[self.phase]["emlayer.items_written"] += len(stream)
            return result
        return finish

    def _chunks(self, original):
        def chunks(stream):
            counts = self.counts[self.phase]
            for chunk in original(stream):
                counts["emlayer.items_read"] += len(chunk)
                yield chunk
        return chunks

    def _rewind(self, original):
        def rewind(stream):
            result = original(stream)
            _maxed(self.counts[self.phase], "emlayer.max_rewinds",
                   stream.rewinds)
            return result
        return rewind

    def _seek(self, original):
        def seek(stream, pos):
            self.counts[self.phase]["emlayer.non_sequential"] += 1
            return original(stream, pos)
        return seek

    def _queue_iter(self, original):
        def queue_iter(queue):
            counts = self.counts[self.phase]
            _maxed(counts, "rounds.queue_intervals_max", len(queue))
            _maxed(counts, "rounds.queue_gamma_bits_max", queue.total_bits())
            return original(queue)
        return queue_iter

    # -- read-out -------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def phase_metrics(self, phase, n):
        """Per-layer figures of one traced build."""
        own = [i for i, s in enumerate(self.spans) if s[4] == phase]
        spans = self.spans
        children = defaultdict(list)
        for i in own:
            children[spans[i][3]].append(i)

        def dur(i):
            return (spans[i][2] - spans[i][1]) / 1e9

        def ancestors(i):
            out = set()
            p = spans[i][3]
            while p >= 0:
                out.add(spans[p][0])
                p = spans[p][3]
            return out

        anc = {i: ancestors(i) for i in own}

        def total(name, under=None):
            return sum(dur(i) for i in own if spans[i][0] == name
                       and (under is None or under in anc[i]))

        def sorts(names=SORTS, under=None):
            picked = [i for i in own if spans[i][0] in names
                      and not anc[i] & SORTS
                      and (under is None or under in anc[i])]
            return sum(dur(i) for i in picked), len(picked)

        def self_time(root):
            """Root time not spent in spans of other modules below it."""
            module = root.split(".")[0]

            def foreign(i):
                return sum(dur(c) if spans[c][0].split(".")[0] != module
                           else foreign(c) for c in children[i])
            return sum(dur(i) - foreign(i) for i in own if spans[i][0] == root)

        c = self.counts[phase]
        peaks = defaultdict(int)
        for factory in self.factories[phase]:
            for owner, size in factory.meter.peaks.items():
                peaks[owner] = max(peaks[owner], size)
        sort_s, sort_calls = sorts()
        m = {
            "emlayer.items_written": c["emlayer.items_written"],
            "emlayer.items_read": c["emlayer.items_read"],
            "emlayer.streams_opened": c["emlayer.streams_opened"],
            "emlayer.max_rewinds": c["emlayer.max_rewinds"],
            "emlayer.non_sequential": c["emlayer.non_sequential"],
            "emlayer.sort_s": sort_s,
            "emlayer.sort_calls": sort_calls,
            "emlayer.meter_peak_items": sum(peaks.values()),
            "rounds.count": c["rounds.count"],
            "rounds.s": total("rounds.run_rounds_external"),
            "rounds.self_s": self_time("rounds.run_rounds_external"),
            "rounds.symbol_sort_s": sorts(
                {"emlayer.em_stable_sort_by_symbol"},
                "rounds.run_rounds_external")[0],
            "rounds.inverse_sort_s": sorts(
                {"emlayer.inverse_radix_sort", "emlayer.prepare_inverse_levels"},
                "rounds.run_rounds_external")[0],
            "rounds.pd_grow_s": total("rounds.pd_increment"),
            "rounds.queue_intervals_max": c["rounds.queue_intervals_max"],
            "rounds.queue_gamma_bits_max": c["rounds.queue_gamma_bits_max"],
            "reorder.s": total("reorder.reorder_pd"),
            "reorder.position_counts_s": total("reorder.position_counts"),
            "reorder.emit_k_s": total("reorder.emit_k"),
            "reorder.cursor_sort_s": sorts(under="reorder.reorder_pd")[0],
            "reorder.self_s": self_time("reorder.reorder_pd"),
            "reorder.cursors": c["reorder.cursors"],
            "reorder.lf_passes": c["reorder.lf_passes"],
            "hybrid.s": total("hybrid.hybrid_pd"),
            "hybrid.cutoff": c["hybrid.cutoff"],
            "hybrid.rounds_s": total("rounds.run_rounds_external",
                                     "hybrid.hybrid_pd"),
            "hybrid.irreducible_missing": c["hybrid.irreducible_missing"],
            "hybrid.sparse_ranks": c["hybrid.sparse_ranks"],
            "hybrid.sparse_share": c["hybrid.sparse_ranks"] / n,
            "hybrid.annotate_s": total("hybrid.annotate_positions"),
            "hybrid.reconstruct_s": total("reorder.reconstruct_text",
                                          "hybrid.hybrid_pd"),
            "hybrid.kernel_s": total("hybrid.kernel"),
            "hybrid.kernel_calls": c["hybrid.kernel_calls"],
            "hybrid.kernel_symbols": c["hybrid.kernel_symbols"],
            "circular.detect_period_s": total("circular.detect_period"),
            "circular.anchor_s": total("circular.rank_to_position"),
            "succinct.rsbv_build_s": total("succinct.rsbv_build"),
            "succinct.wavelet_build_s": total("succinct.wavelet_build"),
        }
        for owner in METER_OWNERS:
            m["emlayer.meter_peak_items." + owner] = peaks[owner]
        return m

    def call_median(self, name):
        """Median duration of one call of a span name over the whole run."""
        durs = [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]
        return statistics.median(durs) if durs else 0.0


def median_metrics(per_build):
    """Metric-wise median over traced builds."""
    return {k: statistics.median(m[k] for m in per_build) for k in per_build[0]}
