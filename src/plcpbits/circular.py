"""The build strategy switch, and circular (terminator-free) input.

Both strategies build on one path: the sequential rounds, then one LF
walk from the sampled ISA, as ``hybrid.hybrid_pd`` runs them.  The
``external`` strategy runs the rounds until every rank is set; the
``hybrid`` one cuts them short, and its kernel computes the ranks they
leave.

For a primitive circular string the machinery of the linear case carries
over; the counts become purely differential, so the emitted bit vector
is rotated to start right after rank 0's position, whose PLCP is zero,
found by single LF steps of two BWT scans each (``rank_to_position``),
and the rotation is recorded as the decode shift.  Circular input is
therefore one anchor shift on the same switch that builds linear input.
Integer powers are rejected: their rotations collide, but their BWT
exposes the exponent through its run lengths, so a power can be shrunk
to its primitive root first.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from math import gcd

from . import emlayer
from .errors import (CircularPowerInput, FormatError, NotAPower, OutOfRange,
                     UnknownStrategy)
from .hybrid import hybrid_pd
from .reorder import emit_k
from .textcore import Bwt


@dataclass(frozen=True)
class PeriodReport:
    period: int
    exponent: int


def detect_period(bwt):
    """Exponent and primitive-root length from the BWT run lengths.

    The transform of u^e repeats each symbol of the transform of u
    exactly e times, so e is the greatest common divisor of the run
    lengths.  Scanning stops as soon as the running gcd hits one.
    """
    n = bwt.n
    g = 0
    prev = None
    run = 0
    for sym in bwt.stream().items():
        if sym == prev:
            run += 1
        else:
            if run:
                g = gcd(g, run)
                if g == 1:
                    return PeriodReport(period=n, exponent=1)
            prev, run = sym, 1
    g = gcd(g, run)
    return PeriodReport(period=n // g, exponent=g)


def shrink_bwt(bwt, factory=None):
    """Transform of the primitive root: every e-th symbol of the input,
    e the exponent ``detect_period`` finds."""
    factory = factory or emlayer.StreamFactory()
    e = detect_period(bwt).exponent
    if e == 1:
        raise NotAPower("input is already primitive")
    out = factory.stream("bwt")
    idx = 0
    for chunk in bwt.stream(factory).chunks():
        out.append_chunk(chunk[(-idx) % e :: e])
        idx += len(chunk)
    return Bwt(out.finish(), bwt.sigma, circular=True, factory=factory)


def rank_to_position(bwt, sisa, rank):
    """Text position of a rank, by at most min(rate, n) single LF steps.

    A step looks the rank up among the samples by ``bisect_left`` in
    their sorted ``SampledIsa.cursors``, ``rank * m + sample``: a rank
    sampled after p steps is at position sample * rate + p.  Else it
    moves to LF(rank) = D[a] + occ(a, rank), a the BWT symbol at rank
    (Ferragina and Manzini's count): one scan of the BWT reads a from
    rank's chunk, a second counts the a's before rank.
    """
    if not 0 <= rank < bwt.n:
        raise OutOfRange("rank %d out of range" % rank)
    n, rate, samples = bwt.n, sisa.rate, sisa.cursors
    m = len(samples)
    view = bwt.stream()
    capacity = view.capacity
    for p in range(min(rate, n)):
        i = bisect_left(samples, rank * m)
        if i < m and samples[i] < (rank + 1) * m:
            return (samples[i] % m * rate + p) % n
        k, off = divmod(rank, capacity)
        a = next(islice(view.rewind().chunks(), k, None))[off]
        chunks = view.rewind().chunks()
        rank = (bwt.d_array[a] + sum(c.count(a) for c in islice(chunks, k))
                + next(chunks).count(a, 0, off))
    raise FormatError("ISA samples do not match the BWT: a cursor meets no "
                      "sample")


STRATEGIES = ("external", "hybrid")


def build_plcp(bwt, sisa, strategy, cutoff=None, factory=None):
    """2n-bit PLCP vector of ``bwt`` by one of two strategies.

    Either runs ``hybrid_pd``'s rounds and walk.  ``external`` bounds the
    rounds by n + 1, which valid input never reaches, so they set every
    rank and the kernel has nothing to do.  ``hybrid`` cuts them after
    ``cutoff`` rounds; without one they stop by ``hybrid.stop_rule``,
    capped at 3*ceil(log2 n).  Only the hybrid takes a cutoff.  A
    circular input must be primitive; its vector starts at the text
    position right after rank 0's, whose LCP is zero, and that rotation
    is recorded as the shift.
    """
    if strategy not in STRATEGIES:
        raise UnknownStrategy("unknown strategy %r" % strategy)
    if cutoff is not None and strategy != "hybrid":
        raise OutOfRange("a cutoff applies to the hybrid strategy only")
    if cutoff is not None and cutoff < 0:
        raise OutOfRange("cutoff %d is negative" % cutoff)
    factory = factory or emlayer.StreamFactory()
    n = bwt.n
    adaptive = strategy == "hybrid" and cutoff is None
    if cutoff is None:
        cutoff = 3 * max(1, (n - 1).bit_length()) if adaptive else n + 1
    shift = 0
    if bwt.circular:
        if n <= 1:
            raise CircularPowerInput("circular input needs length above one")
        if detect_period(bwt).exponent != 1:
            raise CircularPowerInput(
                "circular input is a proper power; shrink it first"
            )
        shift = (rank_to_position(bwt, sisa, 0) + 1) % n
    counts = hybrid_pd(bwt, sisa, cutoff, factory=factory, adaptive=adaptive)
    return emit_k(counts, n, shift=shift)
