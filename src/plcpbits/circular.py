"""The build strategy switch, and circular (terminator-free) input.

For a primitive circular string the machinery of the linear case carries
over; the counts become purely differential, so the emitted bit vector
is rotated to start right after a position of PLCP zero and the rotation
offset is recorded as the decode shift.  Circular input is therefore
one anchor shift on the same switch that builds linear input.  Integer
powers are rejected: their rotations collide, but their BWT exposes the
exponent through its run lengths, so a power can be shrunk to its
primitive root first.
"""

from dataclasses import dataclass
from math import gcd

from . import emlayer
from .errors import CircularPowerInput, NotAPower, OutOfRange, UnknownStrategy
from .hybrid import hybrid_pd
from .reorder import annotate_positions, reorder_pd
from .rounds import run_rounds_external, run_rounds_internal
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


def shrink_bwt(bwt, exponent=None, factory=None):
    """Transform of the primitive root: every e-th symbol of the input."""
    factory = factory or emlayer.StreamFactory()
    e = detect_period(bwt).exponent if exponent is None else exponent
    if e == 1:
        raise NotAPower("input is already primitive")
    out = factory.stream("bwt")
    idx = 0
    for chunk in bwt.stream().chunks():
        out.append_chunk(chunk[(-idx) % e :: e])
        idx += len(chunk)
    return Bwt(out.finish(), bwt.sigma, circular=True, factory=factory)


def rank_to_position(bwt, sisa, rank):
    """Text position of a rank, walking LF until a sampled rank."""
    if not 0 <= rank < bwt.n:
        raise OutOfRange("rank %d out of range" % rank)
    return annotate_positions(bwt, sisa, [rank])[rank]


def build_plcp(bwt, sisa, strategy, cutoff=None, factory=None,
               anchor_rank=None):
    """2n-bit PLCP vector of ``bwt`` by one of three strategies.

    ``internal`` runs the wavelet-tree rounds, ``external`` the sort-based
    rounds, ``hybrid`` the sort-based rounds cut after ``cutoff`` rounds
    (default 3*ceil(log2 n)) plus the sparse kernel.  A circular input
    must be primitive; its vector starts at the text position right after
    the anchor rank's, recorded as the shift.  The anchor must have LCP
    zero; rank 0, the default, always qualifies.
    """
    factory = factory or emlayer.StreamFactory()
    n = bwt.n
    shift = 0
    if bwt.circular:
        if n <= 1:
            raise CircularPowerInput("circular input needs length above one")
        if detect_period(bwt).exponent != 1:
            raise CircularPowerInput(
                "circular input is a proper power; shrink it first"
            )
        shift = (rank_to_position(bwt, sisa, anchor_rank or 0) + 1) % n

    if strategy == "internal":
        pd = run_rounds_internal(bwt).pd
    elif strategy == "external":
        result = run_rounds_external(bwt, factory)
        factory.release(result.set_marks)
        pd = result.pd
    elif strategy == "hybrid":
        if cutoff is None:
            cutoff = 3 * max(1, (n - 1).bit_length())
        pd = hybrid_pd(bwt, sisa, cutoff, factory=factory)
    else:
        raise UnknownStrategy("unknown strategy %r" % strategy)
    k = reorder_pd(pd, bwt, sisa, factory=factory, shift=shift)
    factory.release(pd._bits)
    return k


def build_circular_plcp(bwt, sisa, factory=None, strategy="external",
                        cutoff=None, anchor_rank=None):
    """Rotated 2n-bit PLCP vector of a primitive circular string."""
    return build_plcp(bwt, sisa, strategy, cutoff=cutoff, factory=factory,
                      anchor_rank=anchor_rank)
