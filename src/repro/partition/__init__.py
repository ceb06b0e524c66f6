"""Graph partitioning heuristics (the paper's second baseline).

Kernighan-Lin (1970) is the classic two-way partition-improvement
heuristic the paper compares against; :mod:`repro.partition.refinement`
adds a Fiduccia-Mattheyses-style single-move refinement pass used both as
an ablation and as an optional polish step after spectral bisection, and
:mod:`repro.partition.multilevel` coarsens before running KL.
"""

from repro.partition.kernighan_lin import KLResult, kernighan_lin_bisect
from repro.partition.multilevel import MultilevelResult, multilevel_kl_bisect
from repro.partition.refinement import fm_refine

__all__ = [
    "kernighan_lin_bisect",
    "KLResult",
    "fm_refine",
    "multilevel_kl_bisect",
    "MultilevelResult",
]
