"""Generic rank profile: every leading principal minor is nonzero.

The prover holds A = L.U from elimination without pivoting, which
exists exactly when the profile is generic.  Rounds run from the last
coordinate down to the first; in each round the prover answers two
fresh challenge entries with partial products against U and one weight
entry with a partial product against L.  Descending order means each
answer only needs the challenge suffix already revealed, mirroring the
triangularity being certified.  The verifier does one vector-matrix
product and four dot products at the end.
"""

from __future__ import annotations

import numpy as np

from ..elimination import pluq_rpm
from ..field import SampleSet
from ..matrix import DenseMatrix, dot_mod
from .base import (
    ChallengeSource,
    CostMeter,
    ProverMachine,
    Round,
    VerifierMachine,
    WitnessUnavailable,
    pair_then_weight,
)


def grp_rounds(n: int) -> list[Round]:
    """Pairs and weights from the last coordinate down to the first."""
    return pair_then_weight("grp", range(n - 1, -1, -1))


class GrpProver(ProverMachine):
    """``factors`` is (L, U) with A = L.U; without it they are read off a
    `pluq_rpm` of A whose rank profile matrix is the identity."""

    def __init__(
        self,
        a: DenseMatrix,
        *,
        factors: tuple[DenseMatrix, DenseMatrix] | None = None,
    ):
        super().__init__()
        if factors is None:
            fact = pluq_rpm(a)
            if fact.pivot_cols() != tuple(range(a.n)):
                raise WitnessUnavailable(
                    "a leading principal minor vanishes; nothing to certify"
                )
            factors = (fact.lower, fact.upper)
        f = a.field
        low, up = factors[0].array, factors[1].array
        us, vs, ws = np.zeros((3, a.n), dtype=np.int64)
        self._answer(
            grp_rounds(a.n),
            {"grp-challenge-pair": (us, vs), "grp-weight": (ws,)},
            {
                "grp-challenge-pair": lambda i: (
                    dot_mod(f, up[i, i:], us[i:]),
                    dot_mod(f, up[i, i:], vs[i:]),
                ),
                "grp-weight": lambda i: (dot_mod(f, ws[i:], low[i:, i]),),
            },
        )


class GrpVerifier(VerifierMachine):
    def __init__(
        self,
        a: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
    ):
        super().__init__(meter, challenges)
        self.a = a
        self.sample_set = sample_set
        self.n = a.n
        self.us, self.vs, self.ws, self.xs, self.ys, self.zs = np.zeros(
            (6, self.n), dtype=np.int64
        )
        self._ask(
            grp_rounds(self.n),
            {
                "grp-challenge-pair": (self.us, self.vs),
                "grp-response-pair": (self.xs, self.ys),
                "grp-weight": (self.ws,),
                "grp-weight-response": (self.zs,),
            },
        )

    def _final_check(self) -> None:
        t = self.a.vecmat(self.ws, meter=self.meter)
        f = self.a.field
        zx = dot_mod(f, self.zs, self.xs)
        tu = dot_mod(f, t, self.us)
        zy = dot_mod(f, self.zs, self.ys)
        tv = dot_mod(f, t, self.vs)
        for _ in range(4):
            self.meter.count_dot(self.n)
        if zx == tu and zy == tv:
            self._accept(True)
        else:
            self._reject("final-check")
