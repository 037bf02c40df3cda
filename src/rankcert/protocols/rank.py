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
    Message,
    ProverMachine,
    VerifierMachine,
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
        self.fact = pluq_rpm(a) if fact is None else fact
        self.claim = self.fact.r if claimed_rank is None else claimed_rank
        self._send("rank-upper-claim", None, claim_part(self.claim))
        self._await("rank-upper-image", None, (("field", a.m),), self._on_image)

    def _on_image(self, msg: Message) -> None:
        gamma = solve_leading_pivots(self.fact, msg.vector(), self.fact.r)
        self._send("rank-upper-witness", None, field_part(gamma))


class RankUpperVerifier(VerifierMachine):
    def __init__(
        self,
        a: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
        require_claim_at_most: int | None = None,
    ):
        super().__init__(sample_set, meter, challenges)
        self.a = a
        self.require_claim_at_most = require_claim_at_most
        self.claim = None
        self.w = None
        self._await("rank-upper-claim", None, (("claim", 1),), self._on_claim)

    def _on_claim(self, msg: Message) -> None:
        claim = msg.parts[0].values[0]
        if claim < 0 or claim > min(self.a.m, self.a.n):
            self._reject("bad-rank-claim")
            return
        if self.require_claim_at_most is not None and claim > self.require_claim_at_most:
            self._reject("rank-claim-too-high")
            return
        self.claim = claim
        v = self.challenges.draw_vector(self.sample_set, self.a.n)
        self.w = self.a.matvec(v, meter=self.meter)
        self._send("rank-upper-image", None, field_part(self.w))
        self._await(
            "rank-upper-witness", None, (("field", self.a.n),), self._on_witness
        )

    def _on_witness(self, msg: Message) -> None:
        gamma = np.array(self._residues(msg.parts[0].values), dtype=np.int64)
        if int(np.count_nonzero(gamma)) > self.claim:
            self._reject("hamming-weight")
            return
        if np.array_equal(self.a.matvec(gamma, meter=self.meter), self.w):
            self._accept(self.claim)
        else:
            self._reject("final-check")


# Lower bound -----------------------------------------------------------------


class ColumnClaimProver(ProverMachine):
    """Sends the column claim ``cols``: alone where independence of the
    claimed columns is certified elsewhere, or ahead of its proof."""

    def __init__(self, cols: tuple[int, ...]):
        super().__init__()
        self.cols = tuple(int(c) for c in cols)
        self._send("col-claim", None, indices_part(self.cols))


class ColumnClaimVerifier(VerifierMachine):
    """Reads the col-claim and hands valid columns to ``_on_claim``, which
    accepts them: strictly increasing, inside A and no more of them than
    the rank can be.  A frame that is not one indices part is malformed,
    like any other frame of the wrong shape."""

    def __init__(self, a, sample_set, meter, challenges):
        super().__init__(sample_set, meter, challenges)
        self.a = a
        self._await("col-claim", None, None, self._read_claim)

    def _read_claim(self, msg: Message) -> None:
        if len(msg.parts) != 1 or msg.parts[0].tag != "indices":
            raise MalformedCertificate(f"frame shape {msg.shape()} is not one indices part")
        m, n = self.a.shape
        cols = msg.parts[0].values
        increasing = list(cols) == sorted(set(cols))
        if len(cols) <= min(m, n) and increasing and (not cols or 0 <= cols[0] and cols[-1] < n):
            self._on_claim(cols)
        else:
            self._reject("bad-indices")

    def _on_claim(self, cols: tuple[int, ...]) -> None:
        self._accept(cols)


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
        self._await(
            "rank-lower-combination", None, (("field", a.m),), self._on_combination
        )

    def _on_combination(self, msg: Message) -> None:
        if self.fact is None:
            self.fact = pluq_leading(self.a, self.cols)
        beta = solve_leading_pivots(self.fact, msg.vector(), self.fact.r)[list(self.cols)]
        self._send("rank-lower-coefficients", None, field_part(beta))


class RankLowerVerifier(ColumnClaimVerifier):
    def _on_claim(self, cols: tuple[int, ...]) -> None:
        self.cols = cols
        star = self.sample_set.star()
        self.alpha_on_cols = self.challenges.draw_vector(star, len(cols))
        alpha = np.zeros(self.a.n, dtype=np.int64)
        alpha[list(cols)] = self.alpha_on_cols
        v = self.a.matvec(alpha, meter=self.meter)
        self._send("rank-lower-combination", None, field_part(v))
        self._await(
            "rank-lower-coefficients",
            None,
            (("field", len(cols)),),
            self._on_coefficients,
        )

    def _on_coefficients(self, msg: Message) -> None:
        beta = np.array(self._residues(msg.parts[0].values), dtype=np.int64)
        if np.array_equal(beta, self.alpha_on_cols):
            self._accept(self.cols)
        else:
            self._reject("alpha-mismatch")
