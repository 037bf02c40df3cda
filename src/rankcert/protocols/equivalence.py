"""Triangular equivalence: is B = A.T for a unit triangular T?

The challenge vector goes out one entry per round and each response
entry must be computable from the entries revealed so far.  For a unit
lower triangular witness the rounds run with ascending coordinates, for
a unit upper triangular witness they run descending; either way a
response that needs a not-yet-revealed challenge entry is out of reach,
which is the whole soundness story.  The verifier finishes with one
matrix-vector product per side of the identity.

The honest prover never forms its witness.  Column j of T is e_j plus
coefficients on the pivots of one elimination of A that lie before j in
the elimination's column order (A's own for upper, reversed for lower),
and the rounds run that order backwards.  So each response is x_i, or on
a pivot column x_i plus one back-substitution step with the upper factor
of that elimination, which reads only the challenge entries and the
steps already sent.
"""

from __future__ import annotations

import numpy as np

from ..elimination import (
    BackSubstitution,
    InconsistentSystemError,
    forward_pivot_block,
    pluq_rpm,
)
from ..field import SampleSet
from ..matrix import DenseMatrix, DimensionError
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


def _elimination_order(variant: str) -> slice:
    """Puts a column axis in the elimination order, A's own for upper and
    reversed for lower, as a view; taken twice, it is the identity."""
    return slice(None) if variant == "upper" else slice(None, None, -1)


def find_unit_triangular_witness(
    a: DenseMatrix, b: DenseMatrix, variant: str
) -> BackSubstitution:
    """The unit triangular T with A.T = B, as the back substitution whose
    step k gives (T - I) . x at the k-th pivot column, or
    WitnessUnavailable.  Its x and pivot positions are in the elimination
    order, and T - I is zero on the rows of the other columns.

    Column j of T is e_j plus a combination of the columns of A left of j
    (upper) or right of j (lower) that gives B_j - A_j, with zero on every
    column outside the pivots of that prefix (or suffix).  One elimination
    of A, with its columns reversed for lower, has those pivots as its
    leading ones for every j at once.  Its forward solve, cut to them,
    finds whether every B_j - A_j has such a combination; the back solve
    is left to the steps.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if a.shape != b.shape:
        raise DimensionError("the two matrices must have equal shape")
    order = _elimination_order(variant)
    fact = pluq_rpm(DenseMatrix(a.field, a.array[:, order]))
    at = np.sort(fact.pivot_cols())
    counts = np.searchsorted(at, np.arange(a.n)[order])
    rhs = fact.row_perm.apply_inverse_to_vector((b.array - a.array) % a.field.p)
    try:
        t = forward_pivot_block(fact, rhs, counts, check=True)
    except InconsistentSystemError:
        raise WitnessUnavailable("no unit triangular witness") from None
    return BackSubstitution(fact, t[:, order], at)


@schedule
def tri_rounds(n: int, variant: str) -> tuple[Round, ...]:
    """One challenge entry per round: ascending for a lower witness,
    descending for an upper one."""
    order = range(n) if variant == "lower" else range(n - 1, -1, -1)
    return tuple(("tri-challenge", i, 1, "tri-response", i) for i in order)


class TriangularEquivalenceProver(ProverMachine):
    def __init__(self, a: DenseMatrix, b: DenseMatrix, variant: str = "lower"):
        super().__init__()
        step = find_unit_triangular_witness(a, b, variant)
        p, order = a.field.p, _elimination_order(variant)
        xs = step.xs[order]  # x in A's column order, a view
        cols = np.arange(a.n)[order]
        pivot = {int(cols[c]): k for k, c in enumerate(step.at)}

        def respond(i: int) -> tuple[int]:
            k = pivot.get(i)
            return (int(xs[i]) if k is None else (int(xs[i]) + step(k)) % p,)

        # the rounds run the elimination order backwards, so every step
        # finds the entries it reads already in
        self._answer(
            tri_rounds(a.n, variant), {"tri-challenge": (xs,)}, {"tri-challenge": respond}
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
