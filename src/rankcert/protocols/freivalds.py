"""Product check: does A . B equal C?

No prover message is needed; the verifier draws a random vector v and
compares A(Bv) with Cv, which costs three matrix-vector products
instead of one matrix product.  A wrong C survives with probability
at most 1/|S|.
"""

from __future__ import annotations

import numpy as np

from ..field import SampleSet
from ..matrix import DenseMatrix
from .base import ChallengeSource, CostMeter, VerifierMachine


class FreivaldsVerifier(VerifierMachine):
    def __init__(
        self,
        a: DenseMatrix,
        b: DenseMatrix,
        c: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
    ):
        super().__init__(meter, challenges)
        v = challenges.draw_vector(sample_set, b.n)
        bv = b.matvec(v, meter=meter)
        abv = a.matvec(bv, meter=meter)
        cv = c.matvec(v, meter=meter)
        if np.array_equal(abv, cv):
            self._accept(True)
        else:
            self._reject("product-mismatch")
