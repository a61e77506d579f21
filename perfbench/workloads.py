"""Seeded inputs for the benchmark workloads, and their oracle answers.

Each workload is one input shape plus one way of building it.  The shapes
are chosen so that each stresses a different layer (see README.md).  A
text is generated from the seed alone; the package under test only ever
receives the generated text or the artifacts made from it.

Round-based builders run one full O(n) pass per LCP value up to the
longest repeat, so build time follows the longest repeat of the text.
Left to chance, that length moves by a round or two from seed to seed,
which would make seeds disagree by more than a regression bound.  The
random shapes therefore plant one repeat of exactly ``cap`` symbols and
reject texts holding any longer one: the longest repeat is the same on
every seed, at the value a random text of that size typically has.
"""

import contextlib
import io
import os
import random
from dataclasses import dataclass

from plcpbits import cli
from plcpbits.emlayer import StreamFactory
from plcpbits.textcore import (Bwt, Text, build_bwt, build_suffix_array,
                               invert_sa, kasai_lcp, permute_lcp, sample_isa)


@dataclass(frozen=True)
class Shape:
    name: str
    n: int          # symbols, terminator included
    sigma: int
    rate: int       # ISA sampling rate
    strategy: str
    backend: str    # "file": CLI temp-dir streams; "memory": in-memory streams


SHAPES = {
    s.name: s for s in (
        Shape("dna-cli-file", 10_000, 5, 4, "external", "file"),
        Shape("repeats-hybrid-mem", 10_001, 5, 16, "hybrid", "memory"),
        Shape("bytes-circular-sparse", 15_000, 64, 64, "external", "memory"),
    )
}

DNA_CAP = 13        # longest repeat of the DNA body, typical at n = 10^4
CIRCULAR_CAP = 4    # longest circular repeat, typical at n = 1.5*10^4, sigma 64
REPEAT_COPIES = 8
MUTATIONS_PER_COPY = 3


@dataclass
class Inputs:
    """One workload instance: what the builder gets and what it must return."""

    shape: Shape
    symbols: list        # oracle text, dense ranks
    circular: bool
    expected: tuple      # Kasai PLCP, position order
    bwt_symbols: list
    sisa: object
    bwt_path: str = ""   # artifacts written by ``plcpbits index``
    sisa_path: str = ""

    @property
    def n(self):
        return len(self.symbols)

    def fresh_bwt(self):
        """A new Bwt each build, so no cache survives from the last one."""
        return Bwt(self.bwt_symbols, self.shape.sigma, circular=self.circular)


def _has_repeat(body, k, circular):
    """True when some k symbols occur twice (cyclically if circular)."""
    s = bytes(body)
    if circular:
        s += s[: k - 1]
        starts = len(body)
    else:
        starts = len(s) - k + 1
    seen = set()
    for i in range(starts):
        w = s[i : i + k]
        if w in seen:
            return True
        seen.add(w)
    return False


def capped_random(rng, length, alphabet, cap, circular=False):
    """Random symbols whose longest repeat is exactly ``cap`` long."""
    while True:
        body = rng.choices(alphabet, k=length)
        while True:
            a, b = rng.sample(range(length - cap), 2)
            if abs(a - b) >= cap:
                break
        body[b : b + cap] = body[a : a + cap]
        if not _has_repeat(body, cap + 1, circular):
            return body


def near_copies(rng, length):
    """REPEAT_COPIES copies of one random unit, each with point mutations."""
    unit = rng.choices((1, 2, 3, 4), k=length)
    body = []
    for _ in range(REPEAT_COPIES):
        copy = list(unit)
        for pos in rng.sample(range(length), MUTATIONS_PER_COPY):
            copy[pos] = rng.choice([c for c in (1, 2, 3, 4) if c != copy[pos]])
        body.extend(copy)
    return body


def generate(shape, seed, n=None):
    """The oracle text of a workload: (symbols, circular)."""
    n = n or shape.n
    rng = random.Random("%s:%d" % (shape.name, seed))
    if shape.name == "dna-cli-file":
        return capped_random(rng, n - 1, (1, 2, 3, 4), DNA_CAP) + [0], False
    if shape.name == "repeats-hybrid-mem":
        return near_copies(rng, (n - 1) // REPEAT_COPIES) + [0], False
    if shape.name == "bytes-circular-sparse":
        return capped_random(rng, n, range(shape.sigma), CIRCULAR_CAP,
                             circular=True), True
    raise ValueError("unknown workload %r" % shape.name)


def setup(shape, seed, workdir, n=None):
    """Generate the text, run the oracles and, for the CLI path, index it."""
    symbols, circular = generate(shape, seed, n)
    text = Text(symbols, shape.sigma, circular=circular)
    sa = build_suffix_array(text)
    isa = invert_sa(sa)
    bwt = build_bwt(text, sa)
    inputs = Inputs(shape, symbols, circular,
                    permute_lcp(kasai_lcp(text, sa), isa).values,
                    bwt.to_list(), sample_isa(isa, shape.rate))
    if shape.backend == "file":
        # ACGT body; ``index`` appends the rank-0 terminator itself
        path = os.path.join(workdir, "text.txt")
        with open(path, "wb") as fh:
            fh.write(bytes(b"ACGT"[c - 1] for c in symbols[:-1]))
        prefix = os.path.join(workdir, "text")
        code, out = run_cli(["index", path, "--rate", str(shape.rate),
                             "--output", prefix])
        if code != 0:
            raise RuntimeError("plcpbits index exited %d: %s" % (code, out))
        inputs.bwt_path, inputs.sisa_path = prefix + ".bwt", prefix + ".sisa"
    return inputs


def run_cli(argv):
    """In-process ``plcpbits`` call: (exit code, captured output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


class BuildFailed(Exception):
    """The CLI build returned a non-zero exit code."""


def make_build(inputs, plcp_path):
    """A zero-argument build of the workload, its inputs made beforehand.

    The CLI path writes ``plcp_path`` and returns None; the library path
    returns the PLCP vector.
    """
    shape = inputs.shape
    if shape.backend == "file":
        argv = ["build", inputs.bwt_path, inputs.sisa_path, "-o", plcp_path]

        def build():
            code, out = run_cli(argv)
            if code != 0:
                raise BuildFailed("plcpbits build exited %d: %s" % (code, out))
        return build

    bwt = inputs.fresh_bwt()

    def build():
        return cli.build_plcp(bwt, inputs.sisa, shape.strategy,
                              factory=StreamFactory())
    return build
