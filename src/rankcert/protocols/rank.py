"""The column claim and rank bounds in both directions.

Upper bound: the prover claims rank(A) <= r.  The verifier sends w = Av
for random v and the prover must return a vector of Hamming weight at
most r with the same image.  Two matrix-vector products, no secrets.

Lower bound: the prover claims r columns, strictly increasing, that it
says are independent.  The verifier hides random nonzero coefficients on
exactly those columns, sends the combination, and the prover must
recover the coefficients.  Dependent columns leave the coefficients
statistically ambiguous.  The rank profile matrix also sends the column
claim alone, where equal rank already implies independence.
"""

from __future__ import annotations

import numpy as np

from ..elimination import (
    PluqFactorization,
    pluq_leading,
    pluq_rpm,
    solve_leading_pivots,
)
from ..field import SampleSet
from ..matrix import DenseMatrix
from .base import (
    ChallengeSource,
    CostMeter,
    MalformedCertificate,
    MatrixVerifier,
    ProverMachine,
    Receive,
    Reject,
    Send,
    claim_part,
    field_part,
    indices_part,
)


# Upper bound -----------------------------------------------------------------


class RankUpperProver(ProverMachine):
    """``fact`` is a ``pluq_rpm`` of A, computed here unless the caller
    already holds it.  The witness lives on its pivot columns, the column
    rank profile."""

    def __init__(
        self,
        a: DenseMatrix,
        claimed_rank: int | None = None,
        *,
        fact: PluqFactorization | None = None,
    ):
        super().__init__()
        self.m = a.m
        self.fact = pluq_rpm(a) if fact is None else fact
        self.claim = self.fact.r if claimed_rank is None else claimed_rank

    def script(self):
        yield Send("rank-upper-claim", None, claim_part(self.claim))
        msg = yield Receive("rank-upper-image", None, (("field", self.m),))
        gamma = solve_leading_pivots(self.fact, msg.vector(), self.fact.r)
        yield Send("rank-upper-witness", None, field_part(gamma))


class RankUpperVerifier(MatrixVerifier):
    def __init__(
        self,
        a: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
        require_claim_at_most: int | None = None,
    ):
        super().__init__(a, sample_set, meter, challenges)
        self.require_claim_at_most = require_claim_at_most

    def script(self):
        a = self.a
        msg = yield Receive("rank-upper-claim", None, (("claim", 1),))
        claim = msg.parts[0].values[0]
        if claim < 0 or claim > min(a.m, a.n):
            raise Reject("bad-rank-claim")
        if self.require_claim_at_most is not None and claim > self.require_claim_at_most:
            raise Reject("rank-claim-too-high")
        v = self.challenges.draw_vector(self.sample_set, a.n)
        w = a.matvec(v, meter=self.meter)
        yield Send("rank-upper-image", None, field_part(w))
        msg = yield Receive("rank-upper-witness", None, (("field", a.n),))
        gamma = np.array(self._residues(msg.parts[0].values), dtype=np.int64)
        if int(np.count_nonzero(gamma)) > claim:
            raise Reject("hamming-weight")
        if not np.array_equal(a.matvec(gamma, meter=self.meter), w):
            raise Reject("final-check")
        return claim


# Lower bound -----------------------------------------------------------------


class ColumnClaimProver(ProverMachine):
    """Sends the column claim ``cols``: alone where independence of the
    claimed columns is certified elsewhere, or ahead of its proof."""

    def __init__(self, cols: tuple[int, ...]):
        super().__init__()
        self.cols = tuple(int(c) for c in cols)

    def script(self):
        yield Send("col-claim", None, indices_part(self.cols))


class ColumnClaimVerifier(MatrixVerifier):
    """Reads the col-claim and returns valid columns: strictly increasing,
    inside A and no more of them than the rank can be.  A frame that is not
    one indices part is malformed, like any other frame of the wrong
    shape."""

    def script(self):
        msg = yield Receive("col-claim", None, None)
        if len(msg.parts) != 1 or msg.parts[0].tag != "indices":
            raise MalformedCertificate(f"frame shape {msg.shape()} is not one indices part")
        m, n = self.a.shape
        cols = msg.parts[0].values
        increasing = list(cols) == sorted(set(cols))
        if len(cols) > min(m, n) or not increasing or cols and (cols[0] < 0 or cols[-1] >= n):
            raise Reject("bad-indices")
        return cols


class RankLowerProver(ColumnClaimProver):
    """Claims the pivot columns, sorted, of ``fact``, a ``pluq_rpm`` of A
    computed here when neither it nor a claim is given.  ``claimed_cols``
    given without one are solved on their `pluq_leading`, built only once
    the verifier has taken the claim and sent the combination."""

    def __init__(
        self,
        a: DenseMatrix,
        claimed_cols: tuple[int, ...] | None = None,
        *,
        fact: PluqFactorization | None = None,
    ):
        if claimed_cols is None:
            fact = pluq_rpm(a) if fact is None else fact
            claimed_cols = sorted(fact.pivot_cols())
        super().__init__(claimed_cols)
        self.a = a
        self.fact = fact

    def script(self):
        yield from super().script()
        msg = yield Receive("rank-lower-combination", None, (("field", self.a.m),))
        if self.fact is None:
            self.fact = pluq_leading(self.a, self.cols)
        beta = solve_leading_pivots(self.fact, msg.vector(), self.fact.r)[list(self.cols)]
        yield Send("rank-lower-coefficients", None, field_part(beta))


class RankLowerVerifier(ColumnClaimVerifier):
    def script(self):
        cols = yield from super().script()
        star = self.sample_set.star()
        hidden = self.challenges.draw_vector(star, len(cols))
        alpha = np.zeros(self.a.n, dtype=np.int64)
        alpha[list(cols)] = hidden
        v = self.a.matvec(alpha, meter=self.meter)
        yield Send("rank-lower-combination", None, field_part(v))
        msg = yield Receive("rank-lower-coefficients", None, (("field", len(cols)),))
        beta = np.array(self._residues(msg.parts[0].values), dtype=np.int64)
        if not np.array_equal(beta, hidden):
            raise Reject("alpha-mismatch")
        return cols
