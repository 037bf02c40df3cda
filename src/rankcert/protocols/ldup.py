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

`send_commit` is the one sender of an ldup-commit and `LdupVerifier` its
one reader.  A protocol that runs the factorization on the same
commitment, as the invertible rank profile case does, extends both ends:
its prover queues the commit and answers a schedule that ends with
`ldup_rounds`, taking those answers from `ldup_answers`, and its verifier
subclasses `LdupVerifier` with that schedule and calls `_ldup_holds`.

The determinant run is a one-flag wrapper: nonsingular instances run
the factorization and read the determinant off the commitment, singular
ones run the rank upper bound at n-1 instead.
"""

from __future__ import annotations

import numpy as np

from ..elimination import LdupFactorization, SingularPivotError, ldup, pluq_rpm
from ..field import SampleSet
from ..matrix import DenseMatrix, Diagonal, Permutation, dot_mod, dots_mod
from .base import (
    ChallengeSource,
    CostMeter,
    MalformedCertificate,
    Message,
    ProverMachine,
    Round,
    VerifierMachine,
    WitnessUnavailable,
    field_part,
    flag_part,
    pair_then_weight,
    perm_part,
    schedule,
)
from .rank import RankUpperProver, RankUpperVerifier


@schedule
def ldup_rounds(n: int) -> tuple[Round, ...]:
    """Pairs and weights from the last coordinate down to the second; the
    first coordinates never leave the verifier."""
    return pair_then_weight("ldup", range(n - 1, 0, -1))


def ldup_answers(a: DenseMatrix, fact: LdupFactorization) -> tuple[dict, dict]:
    """The arrays and answers of `ldup_rounds` (see `ProverMachine._answer`)
    on the factorization ``fact`` of A: each round answers with the strict
    part of the next row (column)."""
    f, p = a.field, a.field.p
    low, du, d = fact.lower.array, fact.du.array, fact.diag.entries
    drawn = np.zeros((3, a.n), dtype=np.int64)
    phis, psis, lams = drawn

    def pair(i):
        # row i - 1 of U1 is row i - 1 of D . U1 over its diagonal entry
        inv = pow(d[i - 1], -1, p)
        return [x * inv % p for x in dots_mod(f, drawn[:2, i:], du[i - 1, i:])]

    return (
        {"ldup-challenge-pair": (phis, psis), "ldup-weight": (lams,)},
        {
            "ldup-challenge-pair": pair,
            "ldup-weight": lambda i: (dot_mod(f, lams[i:], low[i:, i - 1]),),
        },
    )


def send_commit(prover: ProverMachine, fact: LdupFactorization) -> None:
    """Queue the ldup-commit of ``fact``: its permutation and diagonal."""
    prover._send("ldup-commit", None, perm_part(fact.perm.images), field_part(fact.diag.entries))


class LdupProver(ProverMachine):
    def __init__(self, a: DenseMatrix, *, fact: LdupFactorization | None = None):
        super().__init__()
        if fact is None:
            try:
                fact = ldup(a)
            except SingularPivotError:
                raise WitnessUnavailable("matrix is singular") from None
        send_commit(self, fact)
        self._answer(ldup_rounds(a.n), *ldup_answers(a, fact))


class LdupVerifier(VerifierMachine):
    """Reads the ldup-commit, then asks ``rounds(n)`` with the arrays of
    ``_streams``.  A diagonal value that is not a residue aborts; images
    that are no permutation, or a zero on the diagonal, reject."""

    rounds = staticmethod(ldup_rounds)

    def __init__(
        self,
        a: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
    ):
        super().__init__(sample_set, meter, challenges)
        self.a = a
        self.n = a.n
        self.phis, self.psis, self.lams = np.zeros((3, self.n), dtype=np.int64)
        # the answer to round i is coordinate i - 1 of a strict part, so it
        # is recorded at i in a row that starts one coordinate early; the
        # last coordinate of each strict part stays zero by design
        self._early = np.zeros((3, self.n + 1), dtype=np.int64)
        self.xt, self.yt, self.zt = self._early[:, 1:]
        xr, yr, zr = self._early
        self._streams = {
            "ldup-challenge-pair": (self.phis, self.psis),
            "ldup-response-pair": (xr, yr),
            "ldup-weight": (self.lams,),
            "ldup-weight-response": (zr,),
        }
        self._await("ldup-commit", None, (("perm", self.n), ("field", self.n)), self._read_commit)

    def _read_commit(self, msg: Message) -> None:
        dvals = self._residues(msg, 1)
        try:
            self.perm = Permutation(msg.parts[0].values)
        except ValueError:
            self._reject("not-a-permutation")
            return
        try:
            self.diag = Diagonal(self.a.field, dvals)
        except ValueError:
            self._reject("d-not-invertible")
            return
        p, xt = self.a.field.p, self.xt
        self._ask(
            self.rounds(self.n),
            self._streams,
            forbid={"ldup-challenge-pair": lambda i: (-xt.item(i) % p,)},
        )

    def _ldup_holds(self) -> bool:
        """The factorization's final identity, both dot-product pairs, once
        the first coordinates are drawn; leaves D . x in ``dx``."""
        f = self.a.field
        p = f.p
        # the first coordinates never leave the verifier
        self.phis[0] = self.challenges.draw(self.sample_set, forbid=(f.neg(int(self.xt[0])),))
        self.psis[0] = self.challenges.draw(self.sample_set)
        self.lams[0] = self.challenges.draw(self.sample_set)
        x = (self.phis + self.xt) % p
        y = (self.psis + self.yt) % p
        z = (self.lams + self.zt) % p
        self.meter.count_vector_op(3 * self.n)
        self.dx = self.diag.apply(x)
        dy = self.diag.apply(y)
        self.meter.count_vector_op(2 * self.n)
        t = self.a.vecmat(self.lams, meter=self.meter)
        s = self.perm.apply_to_vector(t)
        zdx = dot_mod(f, z, self.dx)
        zdy = dot_mod(f, z, dy)
        sphi = dot_mod(f, s, self.phis)
        spsi = dot_mod(f, s, self.psis)
        for _ in range(4):
            self.meter.count_dot(self.n)
        return zdx == sphi and zdy == spsi

    def _final_check(self) -> None:
        if self._ldup_holds():
            self._accept((self.perm, self.diag))
        else:
            self._reject("final-check")


# Determinant ------------------------------------------------------------------


class DetProver(ProverMachine):
    def __init__(self, a: DenseMatrix):
        super().__init__()
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
        super().__init__(sample_set, meter, challenges)
        self.a = a
        self._await("det-mode", None, (("flag", 1),), self._on_mode)

    def _on_mode(self, msg: Message) -> None:
        singular = msg.parts[0].values[0]
        if singular not in (0, 1):
            raise MalformedCertificate("flag out of range")
        args = (self.a, self.sample_set, self.meter, self.challenges)
        if singular:
            bound = RankUpperVerifier(*args, require_claim_at_most=self.a.n - 1)
            self._delegate(bound, lambda rank: self._accept(0))
        else:
            self._delegate(LdupVerifier(*args), self._on_factors)

    def _on_factors(self, commit: tuple[Permutation, Diagonal]) -> None:
        perm, diag = commit
        self.meter.count_vector_op(self.a.n - 1)  # diagonal product
        self._accept((diag.product() * perm.sign()) % self.a.field.p)
