"""LDUP factorization protocol and the determinant built on it.

The prover commits to the permutation and the diagonal, then proves it
knows unit triangular L and U1 with A = L.D.U1.P.  Challenge entries
for the upper factor stream downward and the prover answers each round
with the strictly-upper partial sums of the NEXT row, so the verifier
always knows the partial sum for the row it is about to challenge and
can steer the full entry away from zero.  Weight entries for the lower
factor stream the same way.  The first coordinate of every challenge
vector is drawn locally by the verifier and never transmitted; the
strict parts the prover already sent make that possible, and it is what
pushes the communication below seven entries per dimension.

The determinant run is a one-flag wrapper: nonsingular instances run
the factorization and read the determinant off the commitment, singular
ones run the rank upper bound at n-1 instead.
"""

from __future__ import annotations

import numpy as np

from ..elimination import LdupFactorization, SingularPivotError, ldup, pluq_rpm
from ..field import SampleSet
from ..matrix import DenseMatrix, Diagonal, DimensionError, Permutation, dot_mod
from .base import (
    ChallengeSource,
    CostMeter,
    Message,
    ProverMachine,
    RunResult,
    VerifierMachine,
    WitnessUnavailable,
    field_part,
    flag_part,
    perm_part,
    run_session,
)
from .rank import RankUpperProver, RankUpperVerifier


class LdupProver(ProverMachine):
    def __init__(
        self,
        a: DenseMatrix,
        *,
        emit_commit: bool = True,
        fact: LdupFactorization | None = None,
    ):
        super().__init__()
        if a.m != a.n:
            raise DimensionError("factorization protocol needs a square matrix")
        if fact is None:
            try:
                fact = ldup(a)
            except SingularPivotError:
                raise WitnessUnavailable("matrix is singular") from None
        self.fact = fact
        self.field = a.field
        self.n = a.n
        if emit_commit:
            self._send(
                "ldup-commit",
                None,
                perm_part(fact.perm.images),
                field_part(fact.diag.entries),
            )
        self.phis = np.zeros(self.n, dtype=np.int64)
        self.psis = np.zeros(self.n, dtype=np.int64)
        self.lams = np.zeros(self.n, dtype=np.int64)
        if self.n > 1:
            self._await_pair(self.n - 1)

    def _await_pair(self, i: int) -> None:
        self._await("ldup-challenge-pair", i, (("field", 2),), self._pair_handler(i))

    def _pair_handler(self, i: int):
        def handle(msg: Message) -> None:
            self.phis[i], self.psis[i] = msg.part().values
            row = self.fact.upper.array[i - 1, i:]
            xt = dot_mod(self.field, row, self.phis[i:])
            yt = dot_mod(self.field, row, self.psis[i:])
            self._send("ldup-response-pair", i, field_part((xt, yt)))
            self._await("ldup-weight", i, (("field", 1),), self._weight_handler(i))

        return handle

    def _weight_handler(self, i: int):
        def handle(msg: Message) -> None:
            self.lams[i] = msg.part().values[0]
            col = self.fact.lower.array[i:, i - 1]
            zt = dot_mod(self.field, self.lams[i:], col)
            self._send("ldup-weight-response", i, field_part((zt,)))
            if i > 1:
                self._await_pair(i - 1)

        return handle


class LdupVerifier(VerifierMachine):
    def __init__(
        self,
        a: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
        external_commit: tuple[Permutation, Diagonal] | None = None,
    ):
        super().__init__(meter, challenges)
        if a.m != a.n:
            raise DimensionError("factorization protocol needs a square matrix")
        self.a = a
        self.sample_set = sample_set
        self.n = a.n
        self.perm: Permutation | None = None
        self.diag: Diagonal | None = None
        # strict parts; the last coordinate of each stays zero by design
        self.xt = np.zeros(self.n, dtype=np.int64)
        self.yt = np.zeros(self.n, dtype=np.int64)
        self.zt = np.zeros(self.n, dtype=np.int64)
        self.phis = np.zeros(self.n, dtype=np.int64)
        self.psis = np.zeros(self.n, dtype=np.int64)
        self.lams = np.zeros(self.n, dtype=np.int64)
        self.final_data: dict | None = None
        if external_commit is not None:
            self.perm, self.diag = external_commit
            self._enter_rounds()
        else:
            self._await(
                "ldup-commit",
                None,
                (("perm", self.n), ("field", self.n)),
                self._on_commit,
            )

    def _on_commit(self, msg: Message) -> None:
        if len(msg.parts) != 2:
            self._reject("bad-commit")
            return
        images, dvals = msg.parts[0].values, msg.parts[1].values
        if sorted(images) != list(range(self.n)):
            self._reject("not-a-permutation")
            return
        p = self.a.field.p
        if len(dvals) != self.n or any(not 0 < v < p for v in dvals):
            self._reject("d-not-invertible")
            return
        self.perm = Permutation(images)
        self.diag = Diagonal(self.a.field, dvals)
        self._enter_rounds()

    def _enter_rounds(self) -> None:
        if self.n > 1:
            self._start_round(self.n - 1)
        else:
            self._final_check()

    def _start_round(self, i: int) -> None:
        f = self.a.field
        self.phis[i] = self.challenges.draw(self.sample_set, forbid=(f.neg(int(self.xt[i])),))
        self.psis[i] = self.challenges.draw(self.sample_set)
        self._send("ldup-challenge-pair", i, field_part((self.phis[i], self.psis[i])))
        self._await("ldup-response-pair", i, (("field", 2),), self._pair_handler(i))

    def _pair_handler(self, i: int):
        def handle(msg: Message) -> None:
            self.xt[i - 1], self.yt[i - 1] = msg.part().values
            self.lams[i] = self.challenges.draw(self.sample_set)
            self._send("ldup-weight", i, field_part((self.lams[i],)))
            self._await(
                "ldup-weight-response", i, (("field", 1),), self._weight_handler(i)
            )

        return handle

    def _weight_handler(self, i: int):
        def handle(msg: Message) -> None:
            self.zt[i - 1] = msg.part().values[0]
            if i > 1:
                self._start_round(i - 1)
            else:
                self._final_check()

        return handle

    def _final_check(self) -> None:
        f = self.a.field
        p = f.p
        assert self.perm is not None and self.diag is not None
        # the first coordinates never leave the verifier
        self.phis[0] = self.challenges.draw(self.sample_set, forbid=(f.neg(int(self.xt[0])),))
        self.psis[0] = self.challenges.draw(self.sample_set)
        self.lams[0] = self.challenges.draw(self.sample_set)
        x = (self.phis + self.xt) % p
        y = (self.psis + self.yt) % p
        z = (self.lams + self.zt) % p
        self.meter.count_vector_op(3 * self.n)
        dx = self.diag.apply(x)
        dy = self.diag.apply(y)
        self.meter.count_vector_op(2 * self.n)
        t = self.a.vecmat(self.lams, meter=self.meter)
        s = self.perm.apply_to_vector(t)
        zdx = dot_mod(f, z, dx)
        zdy = dot_mod(f, z, dy)
        sphi = dot_mod(f, s, self.phis)
        spsi = dot_mod(f, s, self.psis)
        for _ in range(4):
            self.meter.count_dot(self.n)
        self.final_data = {
            "x": x,
            "y": y,
            "z": z,
            "dx": dx,
            "dy": dy,
            "phi": self.phis.copy(),
            "psi": self.psis.copy(),
            "lam": self.lams.copy(),
            "s": s,
        }
        if zdx == sphi and zdy == spsi:
            self._accept((self.perm, self.diag))
        else:
            self._reject("final-check")


def run_ldup(
    a: DenseMatrix,
    *,
    challenges: ChallengeSource,
    prover: ProverMachine | None = None,
) -> RunResult:
    if prover is None:
        prover = LdupProver(a)
    return run_session(prover, LdupVerifier(a, SampleSet(a.field), CostMeter(), challenges))


# Determinant ------------------------------------------------------------------


class DetProver(ProverMachine):
    def __init__(self, a: DenseMatrix):
        super().__init__()
        if a.m != a.n:
            raise DimensionError("determinant needs a square matrix")
        # one elimination serves both branches: the pivot columns of the
        # rank profile matrix are the column rank profile
        fact = pluq_rpm(a)
        self.singular = fact.r < a.n
        self._send("det-mode", None, flag_part(self.singular))
        if self.singular:
            self.inner = RankUpperProver(a, fact=fact)
        else:
            self.inner = LdupProver(a, fact=ldup(a, fact))


class DetVerifier(VerifierMachine):
    def __init__(
        self,
        a: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
    ):
        super().__init__(meter, challenges)
        if a.m != a.n:
            raise DimensionError("determinant needs a square matrix")
        self.a = a
        self.sample_set = sample_set
        self._await("det-mode", None, (("flag", 1),), self._on_mode)

    def _on_mode(self, msg: Message) -> None:
        args = (self.a, self.sample_set, self.meter, self.challenges)
        if msg.part().values[0]:
            bound = RankUpperVerifier(*args, require_claim_at_most=self.a.n - 1)
            self._delegate(bound, lambda rank: self._accept(0))
        else:
            self._delegate(LdupVerifier(*args), self._on_factors)

    def _on_factors(self, commit: tuple[Permutation, Diagonal]) -> None:
        perm, diag = commit
        self.meter.count_vector_op(self.a.n - 1)  # diagonal product
        self._accept((diag.product() * perm.sign()) % self.a.field.p)


def run_det(
    a: DenseMatrix,
    *,
    challenges: ChallengeSource,
    prover: ProverMachine | None = None,
) -> RunResult:
    if prover is None:
        prover = DetProver(a)
    return run_session(prover, DetVerifier(a, SampleSet(a.field), CostMeter(), challenges))
