"""plcpbits benchmark: one seeded workload per run, checked against Kasai.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Run from a checkout: the package is imported from ``src/`` next to this
directory and nowhere else.  Everything runs in this one process and
thread.  Temporary files, including the CLI's temp-dir streams, live in
``.bench_tmp/`` and are removed at the end; traced runs leave their spans
in ``.bench_out/``.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures untraced and traced builds side by side and
prints the per-layer metrics instead.  Every build and decode query is
checked against the oracle, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md for why each workload and metric exists.
"""

import argparse
import contextlib
import gc
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3         # measuring rounds: a set-up, a build, loads and queries
LOADS_PER_SAMPLE = 2   # loads and queries are sampled twice per round
BATCHES_PER_SAMPLE = 3
DECODE_BATCH = 1_000   # queries per batch, the same seeded positions each time

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "peak_heap_b_per_sym": "B/symbol",
    "io_bytes_per_sym": "B/symbol",
    "load_s": "s",
    "decode_us_p50": "us",
    "decode_us_p99": "us",
}


def use_checkout_sources():
    """Put the checkout's ``src`` first on the path; refuse anything else."""
    if not (SRC / "plcpbits" / "__init__.py").is_file():
        sys.exit("perfbench: no plcpbits sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import plcpbits
    if Path(plcpbits.__file__).resolve().parent != SRC / "plcpbits":
        sys.exit("perfbench: plcpbits imported from %s, not %s"
                 % (plcpbits.__file__, SRC))


def io_bytes():
    """rchar + wchar of this process, or None where /proc/self/io is closed.

    These are bytes through read/write system calls, served by the page
    cache of the machine running the benchmark, not device traffic.
    """
    try:
        with open("/proc/self/io", "rb") as fh:
            fields = dict(line.split(b":") for line in fh.read().splitlines())
    except OSError:
        return None
    return int(fields[b"rchar"]) + int(fields[b"wchar"])


class Tally:
    """Builds and decode queries attempted, and how many went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1


class CpuRotation:
    """Moves this process to the next CPU it may run on, once a round.

    A shared host slows each CPU in spells of its own, and a lone busy
    process tends to stay on one CPU for a whole run, so a run that lands
    on the quieter CPU reads faster throughout.  Taking the CPUs in turn
    gives every run the same share of each.
    """

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):    # no affinity on this platform
            self.cpus = []
        self.turn = 0

    def next(self):
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1

    def restore(self):
        if self.turn:
            os.sched_setaffinity(0, self.cpus)


class Run:
    """One workload instance: its inputs, checks and measurements."""

    def __init__(self, shape, seed, workdir, n=None):
        import probe
        import workloads
        self.workloads = workloads
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        self.plcp_path = os.path.join(workdir, "out.plcp")
        self.patcher = probe.Patcher()
        self.seeks = probe.SeekCounter(self.patcher)
        self.tally = Tally()
        self.cpus = CpuRotation()
        self.setup_times = []
        self.inputs = None
        self.n = n

    def setup(self):
        """Make the inputs afresh; the same seed gives the same inputs."""
        gc.collect()
        start = time.perf_counter()
        self.inputs = self.workloads.setup(self.shape, self.seed,
                                           self.workdir, self.n)
        self.setup_times.append(time.perf_counter() - start)

    def correct(self, plcp):
        expected = self.inputs.expected
        return (plcp.n == len(expected)
                and all(plcp.decode(i) == v for i, v in enumerate(expected)))

    def build(self, profile=False, tracer=None):
        """One checked build: (seconds, PlcpBits or None, profile or None).

        With a tracer, its wrappers are in place for the build call alone.

        A profiled build is not timed: it runs under tracemalloc and
        returns (peak heap bytes, syscall bytes).  Its syscall window runs
        from the inputs to a written ``.plcp``, so on the library path it
        includes the artifact write a user would make.
        """
        from plcpbits import formats
        build = self.workloads.make_build(self.inputs, self.plcp_path)
        seeks = self.seeks.count
        gc.collect()
        if profile:
            tracemalloc.start()
            io_start = io_bytes()
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                plcp = build()
                built = True
            except Exception:
                traceback.print_exc(file=sys.stderr)
                plcp, built = None, False
            elapsed = time.perf_counter() - start
        measured = None
        if profile:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            if plcp is not None:
                self.save(plcp)
            io_end = io_bytes()
            measured = (peak, None if io_start is None else io_end - io_start)
        if built and plcp is None:
            plcp = formats.read_plcp(self.plcp_path)[0]
        ok = built and self.seeks.count == seeks and self.correct(plcp)
        self.tally.record(ok)
        return elapsed, plcp, measured

    def save(self, plcp):
        """Library path only: the user writes the artifact after a build."""
        from plcpbits import formats
        if self.shape.backend == "memory":
            formats.write_plcp(self.plcp_path, plcp, self.shape.sigma,
                               circular=self.inputs.circular)

    def loads(self, repeats):
        from plcpbits import formats
        times = []
        for _ in range(repeats):
            gc.collect()
            start = time.perf_counter()
            plcp = formats.read_plcp(self.plcp_path)[0]
            times.append(time.perf_counter() - start)
        return times, plcp

    def decodes(self, plcp):
        """Closed loop, one caller: per-query latency in nanoseconds."""
        rng = random.Random("%s:%d:decode" % (self.shape.name, self.seed))
        n = self.inputs.n
        positions = [rng.randrange(n) for _ in range(DECODE_BATCH)]
        expected = self.inputs.expected
        decode = plcp.decode
        clock = time.perf_counter_ns
        latencies = []
        gc.collect()
        for p in positions:
            start = clock()
            value = decode(p)
            latencies.append(clock() - start)
            self.tally.record(value == expected[p])
        return latencies

    def close(self):
        self.patcher.undo()
        self.cpus.restore()


def end_to_end(run, seconds):
    """Untraced run: every end-to-end metric."""
    deadline = time.perf_counter() + seconds
    run.setup()
    n = run.inputs.n
    # profiled first build: heap and syscall bytes, untimed; it also warms up
    start = io_bytes()
    probe_cost = io_bytes() - start if start is not None else 0
    _, _, (peak, io) = run.build(profile=True)
    if io is None:
        print("perfbench: /proc/self/io is not readable, so "
              "io_bytes_per_sym is null", file=sys.stderr)
    # The machine is shared: other tenants slow each CPU, in spells of its
    # own lasting a second or more, by up to 1.7 times.  Each round runs on
    # the next CPU and samples every timed metric, set-up included, so a
    # run sees every CPU and its whole window alike.  Loads and query
    # batches take milliseconds, so they are sampled on both sides of the
    # build.  Such a sample reads either the fast or the slow speed, and
    # from run to run between a sixth and a half of them are fast, so
    # their median flips from one speed to the other: for loads and the
    # typical query, the fastest sample is reported, which reads the
    # undisturbed speed in nearly every run; batches are short to give it
    # more chances.  Builds span many spells, and a batch's p99 is set by
    # the slow calls in it, so those report medians.  Percentiles are
    # taken per batch (10 samples lie beyond each p99).
    builds, loads, p50s, p99s = [], [], [], []

    def sample_queries():
        times, loaded = run.loads(LOADS_PER_SAMPLE)
        loads.extend(times)
        for _ in range(BATCHES_PER_SAMPLE):
            cuts = statistics.quantiles(run.decodes(loaded), n=100)
            p50s.append(cuts[49])
            p99s.append(cuts[98])

    while len(builds) < MIN_ROUNDS or time.perf_counter() < deadline:
        run.cpus.next()
        run.setup()
        sample_queries()
        builds.append(run.build()[0])
        sample_queries()
    return {
        "setup_s": statistics.median(run.setup_times),
        "build_s": statistics.median(builds),
        "peak_heap_b_per_sym": peak / n,
        "io_bytes_per_sym": None if io is None else (io - probe_cost) / n,
        "load_s": min(loads),
        "decode_us_p50": min(p50s) / 1000,
        "decode_us_p99": statistics.median(p99s) / 1000,
    }


def per_layer(run, seconds):
    """Traced run: untraced builds, then traced ones, then the per-layer view."""
    import probe
    deadline = time.perf_counter() + seconds
    run.setup()
    run.build()     # warm-up, like the profiled build of an untraced run
    untraced, traced, phases = [], [], []
    tracer = probe.Tracer()
    while len(traced) < 2 or time.perf_counter() < deadline:
        run.cpus.next()
        untraced.append(run.build()[0])
        tracer.phase = "build-%d" % len(traced)
        phases.append(tracer.phase)
        elapsed, plcp, _ = run.build(tracer=tracer)
        traced.append(elapsed)
    tracer.install()
    tracer.phase = "save"
    run.save(plcp)
    for i in range(2 * LOADS_PER_SAMPLE):
        tracer.phase = "load-%d" % i
        _, loaded = run.loads(1)
    tracer.phase = "decode"
    run.decodes(loaded)
    metrics = probe.median_metrics(
        [tracer.phase_metrics(p, run.inputs.n) for p in phases])
    for name in ("read_bwt", "read_sisa", "write_plcp", "read_plcp"):
        metrics["formats.%s_s" % name] = tracer.call_median("formats." + name)
    metrics["succinct.decode_calls"] = \
        tracer.counts["decode"]["succinct.decode_calls"]
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / ("spans-%s-seed%d.jsonl" % (run.shape.name, run.seed)))
    tracer.uninstall()
    return metrics


def run_workload(name, seed, seconds, trace, n=None):
    """Measure one workload; returns the result object printed last."""
    import workloads
    shape = workloads.SHAPES[name]
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (name, seed),
                               dir=ROOT / ".bench_tmp")
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = workdir      # the CLI's temp-dir streams land here
    run = Run(shape, seed, workdir, n)
    try:
        if trace:
            values = per_layer(run, seconds)
        else:
            values = end_to_end(run, seconds)
    finally:
        tempfile.tempdir = saved_tempdir
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)
    tally = run.tally
    if trace:
        import probe
        values["fail_ratio"] = tally.failed / tally.attempted
        units = probe.PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    import workloads
    names = list(workloads.SHAPES) if args.workload == "all" \
        else [args.workload]
    if any(name not in workloads.SHAPES for name in names):
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.SHAPES)))
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = result
        print("%s seed %d: %d attempted, %d failed"
              % (name, args.seed, result["attempted"], result["failed"]))
        for metric, m in result["metrics"].items():
            print("  %-36s %14.6g %s" % (metric, m["value"], m["unit"])
                  if m["value"] is not None else
                  "  %-36s %14s %s" % (metric, "null", m["unit"]))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
