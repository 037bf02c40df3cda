"""Product check: does A . B equal C?

No prover message is needed; the verifier draws a random vector v and
compares A(Bv) with Cv, which costs three matrix-vector products per
repetition instead of one matrix product.  A wrong C survives one round
with probability at most 1/|S|.
"""

from __future__ import annotations

import numpy as np

from ..field import SampleSet
from ..matrix import DenseMatrix, DimensionError
from .base import (
    ChallengeSource,
    CostMeter,
    ProverMachine,
    RunResult,
    VerifierMachine,
    run_session,
)


class SilentProver(ProverMachine):
    """A prover with nothing to say; some checks need no help."""


class FreivaldsVerifier(VerifierMachine):
    def __init__(
        self,
        a: DenseMatrix,
        b: DenseMatrix,
        c: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
        repetitions: int = 1,
    ):
        super().__init__(meter, challenges)
        if a.n != b.m or c.shape != (a.m, b.n):
            raise DimensionError("product shape mismatch")
        if repetitions < 1:
            raise ValueError("need at least one repetition")
        for rep in range(repetitions):
            v = challenges.draw_vector(sample_set, b.n)
            bv = b.matvec(v, meter=meter)
            abv = a.matvec(bv, meter=meter)
            cv = c.matvec(v, meter=meter)
            if not np.array_equal(abv, cv):
                self._reject("product-mismatch")
                return
        self._accept(True)


def run_freivalds(
    a: DenseMatrix,
    b: DenseMatrix,
    c: DenseMatrix,
    *,
    challenges: ChallengeSource,
    repetitions: int = 1,
    prover: ProverMachine | None = None,
) -> RunResult:
    verifier = FreivaldsVerifier(
        a, b, c, SampleSet(a.field), CostMeter(), challenges, repetitions
    )
    return run_session(SilentProver() if prover is None else prover, verifier)
