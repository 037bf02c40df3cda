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

from ..elimination import SingularPivotError, lu_nopivot
from ..field import SampleSet
from ..matrix import DenseMatrix, DimensionError, dot_mod
from .base import (
    ChallengeSource,
    CostMeter,
    Message,
    ProverMachine,
    RunResult,
    VerifierMachine,
    WitnessUnavailable,
    field_part,
    run_session,
)


class GrpProver(ProverMachine):
    def __init__(self, a: DenseMatrix):
        super().__init__()
        if a.m != a.n:
            raise DimensionError("the profile claim needs a square matrix")
        try:
            self.lower, self.upper = lu_nopivot(a)
        except SingularPivotError:
            raise WitnessUnavailable(
                "a leading principal minor vanishes; nothing to certify"
            ) from None
        self.field = a.field
        self.n = a.n
        self.us = np.zeros(self.n, dtype=np.int64)
        self.vs = np.zeros(self.n, dtype=np.int64)
        self.ws = np.zeros(self.n, dtype=np.int64)
        self._await_pair(self.n - 1)

    def _await_pair(self, i: int) -> None:
        self._await("grp-challenge-pair", i, (("field", 2),), self._pair_handler(i))

    def _pair_handler(self, i: int):
        def handle(msg: Message) -> None:
            self.us[i], self.vs[i] = msg.part().values
            urow = self.upper.array[i, i:]
            x = dot_mod(self.field, urow, self.us[i:])
            y = dot_mod(self.field, urow, self.vs[i:])
            self._send("grp-response-pair", i, field_part((x, y)))
            self._await("grp-weight", i, (("field", 1),), self._weight_handler(i))

        return handle

    def _weight_handler(self, i: int):
        def handle(msg: Message) -> None:
            self.ws[i] = msg.part().values[0]
            lcol = self.lower.array[i:, i]
            z = dot_mod(self.field, self.ws[i:], lcol)
            self._send("grp-weight-response", i, field_part((z,)))
            if i > 0:
                self._await_pair(i - 1)

        return handle


class GrpVerifier(VerifierMachine):
    def __init__(
        self,
        a: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
    ):
        super().__init__(meter, challenges)
        if a.m != a.n:
            raise DimensionError("the profile claim needs a square matrix")
        self.a = a
        self.sample_set = sample_set
        self.n = a.n
        self.us = np.zeros(self.n, dtype=np.int64)
        self.vs = np.zeros(self.n, dtype=np.int64)
        self.ws = np.zeros(self.n, dtype=np.int64)
        self.xs = np.zeros(self.n, dtype=np.int64)
        self.ys = np.zeros(self.n, dtype=np.int64)
        self.zs = np.zeros(self.n, dtype=np.int64)
        self._start_round(self.n - 1)

    def _start_round(self, i: int) -> None:
        self.us[i] = self.challenges.draw(self.sample_set)
        self.vs[i] = self.challenges.draw(self.sample_set)
        self._send("grp-challenge-pair", i, field_part((self.us[i], self.vs[i])))
        self._await("grp-response-pair", i, (("field", 2),), self._pair_handler(i))

    def _pair_handler(self, i: int):
        def handle(msg: Message) -> None:
            self.xs[i], self.ys[i] = msg.part().values
            self.ws[i] = self.challenges.draw(self.sample_set)
            self._send("grp-weight", i, field_part((self.ws[i],)))
            self._await(
                "grp-weight-response", i, (("field", 1),), self._weight_handler(i)
            )

        return handle

    def _weight_handler(self, i: int):
        def handle(msg: Message) -> None:
            self.zs[i] = msg.part().values[0]
            if i > 0:
                self._start_round(i - 1)
                return
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

        return handle


def run_grp(
    a: DenseMatrix,
    *,
    challenges: ChallengeSource,
    prover: ProverMachine | None = None,
) -> RunResult:
    if prover is None:
        prover = GrpProver(a)
    return run_session(prover, GrpVerifier(a, SampleSet(a.field), CostMeter(), challenges))
