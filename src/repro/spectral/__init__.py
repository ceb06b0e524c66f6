"""Spectral graph machinery (Section III-B, Theorems 1-3).

The minimum-cut stage of the paper rests on the spectrum of the graph
Laplacian: the eigenvector of the second-smallest eigenvalue (the Fiedler
vector) encodes the bisection.  This package provides:

* from-scratch eigensolvers (deflated power iteration, Lanczos) validated
  against numpy/scipy in the test suite;
* a :class:`FiedlerSolver` with dense, sparse, power, lanczos and
  distributed backends;
* spectral bisection (the ``split`` of Algorithm 2) and its recursive
  multiway form;
* Cheeger bounds and sweep cuts;
* the Theorem 2 quadratic-form identity used by the property tests.
"""

from repro.spectral.bisection import BisectionResult, spectral_bisect
from repro.spectral.cheeger import (
    cheeger_bounds,
    graph_conductance,
    normalized_lambda2,
    sweep_cut,
)
from repro.spectral.eigen import (
    dominant_eigenpair,
    power_iteration,
    smallest_nontrivial_laplacian_eigenpair,
)
from repro.spectral.fiedler import FiedlerResult, FiedlerSolver
from repro.spectral.lanczos import lanczos_smallest_nontrivial
from repro.spectral.recursive import RecursivePartition, recursive_spectral_partition
from repro.spectral.theory import (
    cut_value_quadratic_form,
    indicator_vector,
    rayleigh_quotient,
)

__all__ = [
    "power_iteration",
    "dominant_eigenpair",
    "smallest_nontrivial_laplacian_eigenpair",
    "lanczos_smallest_nontrivial",
    "FiedlerSolver",
    "FiedlerResult",
    "spectral_bisect",
    "BisectionResult",
    "recursive_spectral_partition",
    "RecursivePartition",
    "cheeger_bounds",
    "sweep_cut",
    "graph_conductance",
    "normalized_lambda2",
    "cut_value_quadratic_form",
    "indicator_vector",
    "rayleigh_quotient",
]
