"""Triangular equivalence: is B = A.T for a unit triangular T?

The challenge vector goes out one entry per round and each response
entry must be computable from the entries revealed so far.  For a unit
lower triangular witness the rounds run with ascending coordinates, for
a unit upper triangular witness they run descending; either way a
response that needs a not-yet-revealed challenge entry is out of reach,
which is the whole soundness story.  The verifier finishes with one
matrix-vector product per side of the identity.
"""

from __future__ import annotations

import numpy as np

from ..elimination import InconsistentSystemError, pluq_rpm, solve_leading_pivots
from ..field import SampleSet
from ..matrix import DenseMatrix, DimensionError, dot_mod
from .base import (
    ChallengeSource,
    CostMeter,
    ProverMachine,
    Round,
    VerifierMachine,
    WitnessUnavailable,
    schedule,
)

VARIANTS = ("lower", "upper")


def find_unit_triangular_witness(
    a: DenseMatrix, b: DenseMatrix, variant: str
) -> DenseMatrix:
    """Unit triangular T with A.T = B, or WitnessUnavailable.

    Column j of T is e_j plus a combination of the columns of A left of j
    (upper) or right of j (lower) that gives B_j - A_j, with zero on every
    column outside the pivots of that prefix (or suffix).  One elimination
    of A, with its columns reversed for lower, has those pivots as its
    leading ones for every j at once.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if a.shape != b.shape:
        raise DimensionError("the two matrices must have equal shape")
    n = a.n
    # position of each column in the elimination order; an involution
    order = np.arange(n) if variant == "upper" else np.arange(n)[::-1]
    fact = pluq_rpm(DenseMatrix(a.field, a.array[:, order]))
    counts = np.searchsorted(np.sort(fact.pivot_cols()), order)
    rhs = (b.array - a.array) % a.field.p
    try:
        coeffs = solve_leading_pivots(fact, rhs, counts)
    except InconsistentSystemError:
        raise WitnessUnavailable("no unit triangular witness") from None
    return DenseMatrix(a.field, coeffs[order] + np.eye(n, dtype=np.int64))


@schedule
def tri_rounds(n: int, variant: str) -> tuple[Round, ...]:
    """One challenge entry per round: ascending for a lower witness,
    descending for an upper one."""
    order = range(n) if variant == "lower" else range(n - 1, -1, -1)
    return tuple(("tri-challenge", i, 1, "tri-response", i) for i in order)


class TriangularEquivalenceProver(ProverMachine):
    def __init__(self, a: DenseMatrix, b: DenseMatrix, variant: str = "lower"):
        super().__init__()
        self.witness = find_unit_triangular_witness(a, b, variant)
        f, w = a.field, self.witness.array
        xs = np.zeros(a.n, dtype=np.int64)
        # row i of the witness is zero wherever x is not yet revealed
        self._answer(
            tri_rounds(a.n, variant),
            {"tri-challenge": (xs,)},
            {"tri-challenge": lambda i: (dot_mod(f, w[i], xs),)},
        )


class TriangularEquivalenceVerifier(VerifierMachine):
    def __init__(
        self,
        a: DenseMatrix,
        b: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
        variant: str = "lower",
    ):
        super().__init__(sample_set, meter, challenges)
        self.a = a
        self.b = b
        self.xs, self.ys = np.zeros((2, a.n), dtype=np.int64)
        self._ask(
            tri_rounds(a.n, variant),
            {"tri-challenge": (self.xs,), "tri-response": (self.ys,)},
        )

    def _final_check(self) -> None:
        ay = self.a.matvec(self.ys, meter=self.meter)
        bx = self.b.matvec(self.xs, meter=self.meter)
        if np.array_equal(ay, bx):
            self._accept(True)
        else:
            self._reject("final-check")
