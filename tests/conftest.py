"""Shared oracles and input generators for the test suite."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import settings

from plcpbits import (Bwt, PlcpBits, Text, build_bwt, build_suffix_array,
                      invert_sa, kasai_lcp, permute_lcp, sample_isa)
from plcpbits.errors import PlcpError


# ``--hypothesis-profile=ci``: the same examples on every run, and a failing
# one printed as a blob that ``@reproduce_failure`` replays
settings.register_profile("ci", derandomize=True, print_blob=True)


class DiffBoundViolation(PlcpError):
    """Adjacent PLCP values may drop by at most one."""


def plcp_encode(plcp):
    """K oracle: a PLCP array as the unary difference bit vector."""
    values = list(plcp.values if hasattr(plcp, "values") else plcp)
    bits = []
    prev = -1
    for v in values:
        d = v + 1 if prev < 0 else v - prev + 1
        if d < 0:
            raise DiffBoundViolation("PLCP drops by more than one (%d after "
                                     "%d)" % (v, prev))
        bits.extend([0] * d)
        bits.append(1)
        prev = v
    return PlcpBits(bits, len(values), shift=0)


@dataclass
class Fixture:
    text: Text
    sa: object
    isa: object
    lcp: object
    plcp: object
    bwt: Bwt

    @property
    def n(self):
        return len(self.text)

    def k_bits(self):
        return plcp_encode(self.plcp).bit_string()

    def sisa(self, rate):
        return sample_isa(self.isa, rate)


def make_fixture(symbols, sigma, circular=False):
    text = Text(symbols, sigma, circular=circular)
    sa = build_suffix_array(text)
    isa = invert_sa(sa)
    lcp = kasai_lcp(text, sa)
    plcp = permute_lcp(lcp, isa)
    return Fixture(text, sa, isa, lcp, plcp, build_bwt(text, sa))


def banana():
    # b a n a n a $ over ranks $=0 a=1 b=2 n=3
    return make_fixture([2, 1, 3, 1, 3, 1, 0], 4)


def abbab():
    return make_fixture([0, 1, 1, 0, 1], 2, circular=True)


def random_text(rng, n, sigma):
    """Random terminated text: n-1 body symbols from 1..sigma-1 plus 0."""
    return [rng.randrange(1, sigma) for _ in range(n - 1)] + [0]


def de_bruijn_like(sigma, order):
    """Greedy de-Bruijn-style sequence over 1..sigma-1, terminated."""
    k = sigma - 1
    seen = set()
    out = [1] * order
    seen.add(tuple(out))
    while True:
        for c in range(k, 0, -1):
            cand = tuple(out[-(order - 1):] + [c]) if order > 1 else (c,)
            if cand not in seen:
                seen.add(cand)
                out.append(c)
                break
        else:
            break
    return out + [0]


def adversarial_texts(n=64, sigma=3):
    yield [1] * (n - 1) + [0]                      # all-equal plus terminator
    yield de_bruijn_like(sigma + 1, 3)
    k = n // 2
    yield [1] * k + [2] + [1] * k + [0]            # a^k b a^k


def circular_bwt_raw(symbols, sigma):
    """Circular BWT by brute rotation sort, tolerating integer powers."""
    n = len(symbols)
    doubled = list(symbols) + list(symbols)
    order = sorted(range(n), key=lambda i: (doubled[i : i + n], i))
    return Bwt([symbols[(i + n - 1) % n] for i in order], sigma, circular=True)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
