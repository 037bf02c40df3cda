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
from .base import ChallengeSource, CostMeter, Reject, VerifierMachine


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
        super().__init__(sample_set, meter, challenges)
        self.a, self.b, self.c = a, b, c

    def script(self):
        yield from ()  # no message either way
        v = self.challenges.draw_vector(self.sample_set, self.b.n)
        bv = self.b.matvec(v, meter=self.meter)
        abv = self.a.matvec(bv, meter=self.meter)
        cv = self.c.matvec(v, meter=self.meter)
        if not np.array_equal(abv, cv):
            raise Reject("product-mismatch")
        return True
