"""Succinct 2n-bit PLCP bit vectors from the BWT and a sampled ISA.

The package builds the permuted-LCP difference encoding through one
switch, ``build_plcp``, with three interchangeable strategies
(wavelet-tree rounds, sort-based sequential rounds, and a truncated
hybrid with a sparse kernel), supports circular strings via rotated
emission, and ships brute-force oracles for all of it.
"""

from .circular import (PeriodReport, build_circular_plcp, build_plcp,
                       detect_period, rank_to_position, shrink_bwt)
from .emlayer import EmStream, MemoryMeter, StreamFactory
from .errors import PlcpError
from .hybrid import KERNELS, hybrid_pd
from .reorder import reconstruct_text, reorder_pd
from .rounds import (IntervalList, PdBits, RoundResult, run_rounds_external,
                     run_rounds_internal)
from .succinct import (GammaStream, PlcpBits, RsBitVector, WaveletTree,
                       plcp_encode)
from .textcore import (Bwt, SampledIsa, Text, build_bwt, build_suffix_array,
                       invert_sa, kasai_lcp, permute_lcp, sample_isa)

__version__ = "1.0.0"

__all__ = [
    "Bwt", "EmStream", "GammaStream", "IntervalList", "KERNELS",
    "MemoryMeter", "PdBits", "PeriodReport", "PlcpBits", "PlcpError",
    "RoundResult", "RsBitVector", "SampledIsa", "StreamFactory", "Text",
    "WaveletTree", "build_bwt", "build_circular_plcp", "build_plcp",
    "build_suffix_array", "detect_period", "hybrid_pd", "invert_sa",
    "kasai_lcp", "permute_lcp", "plcp_encode", "rank_to_position",
    "reconstruct_text", "reorder_pd", "run_rounds_external",
    "run_rounds_internal", "sample_isa", "shrink_bwt",
]
