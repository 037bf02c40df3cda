"""LDUP factorization protocol and the determinant built on it.

The prover commits to the permutation and the diagonal, then proves it
knows unit triangular L and U1 with A = L.D.U1.P, by GRP's
pair-then-weight stream (grp.py) one coordinate later.  Challenge entries
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

from ..elimination import LdupFactorization, SingularPivotError, ldup, pluq_rpm
from ..field import SampleSet
from ..matrix import DenseMatrix, Diagonal, Permutation
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
    perm_part,
    schedule,
)
from .grp import pair_then_weight, pairs_hold, stream_answers, stream_layout
from .rank import RankUpperProver, RankUpperVerifier


@schedule
def ldup_rounds(n: int) -> tuple[Round, ...]:
    """Pairs and weights from the last coordinate down to the second; the
    first coordinates never leave the verifier."""
    return pair_then_weight("ldup", range(n - 1, 0, -1))


def ldup_answers(a: DenseMatrix, fact: LdupFactorization) -> tuple[dict, dict]:
    """The arrays and answers of `ldup_rounds` (see `ProverMachine._answer`)
    on the factorization ``fact`` of A: each round answers with the strict
    part of the next row (column).  Row i of U1 is row i of D . U1 over
    its diagonal entry."""
    inv = [pow(d, -1, a.field.p) for d in fact.diag.entries]
    return stream_answers("ldup", a.field, fact.lower.array, fact.du.array, inv, 1)


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
        # the answers are the strict parts of rows and columns, whose last
        # coordinates stay zero by design
        self.drawn, self.strict, self._streams = stream_layout("ldup", self.n, 1)
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
        p, xt = self.a.field.p, self.strict[0]
        self._ask(
            self.rounds(self.n),
            self._streams,
            forbid={"ldup-challenge-pair": lambda i: (-xt.item(i) % p,)},
        )

    def _ldup_holds(self) -> bool:
        """The factorization's final identity, both dot-product pairs, once
        the first coordinates are drawn; leaves D . x and D . y in the rows
        of ``dxy``."""
        f, drawn = self.a.field, self.drawn
        # the first coordinates never leave the verifier
        drawn[0, 0] = self.challenges.draw(self.sample_set, forbid=(f.neg(int(self.strict[0, 0])),))
        drawn[1, 0] = self.challenges.draw(self.sample_set)
        drawn[2, 0] = self.challenges.draw(self.sample_set)
        xyz = (drawn + self.strict) % f.p
        self.meter.count_vector_op(3 * self.n)
        self.dxy = self.diag.apply(xyz[:2])
        self.meter.count_vector_op(2 * self.n)
        t = self.a.vecmat(drawn[2], meter=self.meter)
        return pairs_hold(self, self.dxy, xyz[2], drawn[:2], self.perm.apply_to_vector(t))

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
