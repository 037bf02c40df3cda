"""Certificates for exact linear algebra over prime fields.

The package provides interactive protocols (driven over a simulated
message channel) and their hash-compiled non-interactive counterparts
for rank bounds, triangular equivalence, generic rank profile, LDUP
factorization, determinant, and rank profiles, together with slow
brute-force oracles used to validate everything and adversarial provers
used to measure soundness empirically.
"""

from .field import PrimeField, SampleSet
from .matrix import DenseMatrix, Diagonal, Permutation, RankProfileMatrix

__all__ = [
    "DenseMatrix",
    "Diagonal",
    "Permutation",
    "PrimeField",
    "RankProfileMatrix",
    "SampleSet",
]

__version__ = "0.1.0"
