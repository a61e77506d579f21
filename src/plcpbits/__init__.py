"""Succinct 2n-bit PLCP bit vectors from the BWT and a sampled ISA.

The package builds the permuted-LCP difference encoding through one
switch, ``build_plcp``, on one path with two strategies (sequential
bit-stream rounds run to their last round, or cut short and completed
by a sparse kernel), supports circular strings via rotated emission,
and ships brute-force oracles for all of it.
"""

from .circular import (PeriodReport, build_plcp, detect_period,
                       rank_to_position, shrink_bwt)
from .emlayer import EmStream, MemoryMeter, StreamFactory
from .errors import PlcpError
from .hybrid import KERNELS, hybrid_pd
from .reorder import reconstruct_text
from .rounds import IntervalList, PdBits, RoundResult, run_rounds_external
from .succinct import GammaStream, PlcpBits, RsBitVector, WaveletTree
from .textcore import (Bwt, SampledIsa, Text, build_bwt, build_suffix_array,
                       invert_sa, kasai_lcp, permute_lcp, sample_isa)

__version__ = "1.0.0"

__all__ = [
    "Bwt", "EmStream", "GammaStream", "IntervalList", "KERNELS",
    "MemoryMeter", "PdBits", "PeriodReport", "PlcpBits", "PlcpError",
    "RoundResult", "RsBitVector", "SampledIsa", "StreamFactory", "Text",
    "WaveletTree", "build_bwt", "build_plcp", "build_suffix_array",
    "detect_period", "hybrid_pd", "invert_sa", "kasai_lcp", "permute_lcp",
    "rank_to_position", "reconstruct_text", "run_rounds_external",
    "sample_isa", "shrink_bwt",
]
