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

`ldup_commit` is the one sender of an ldup-commit and
`LdupVerifier._commit` its one reader.  A protocol that runs the
factorization on the same commitment, as the invertible rank profile
case does, extends both ends: its prover sends the commit and answers a
schedule that ends with `ldup_rounds`, taking those answers from
`ldup_answers`, and its verifier subclasses `LdupVerifier`, reads the
commit with that schedule and calls `_ldup_holds`.

The determinant run is a one-flag wrapper: nonsingular instances run
the factorization and read the determinant off the commitment, singular
ones run the rank upper bound at n-1 instead.
"""

from __future__ import annotations

from ..elimination import LdupFactorization, SingularPivotError, ldup, pluq_rpm
from ..matrix import DenseMatrix, Diagonal, Permutation
from .base import (
    Block,
    MalformedCertificate,
    MatrixVerifier,
    ProverMachine,
    Receive,
    Reject,
    Send,
    WitnessUnavailable,
    field_part,
    flag_part,
    perm_part,
)
from .grp import pair_then_weight, pairs_hold, stream_answers, stream_layout
from .rank import RankUpperProver, RankUpperVerifier


def ldup_rounds(n: int) -> tuple[Block]:
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


def ldup_commit(fact: LdupFactorization) -> Send:
    """The ldup-commit of ``fact``: its permutation and diagonal."""
    return Send("ldup-commit", None, perm_part(fact.perm.images), field_part(fact.diag.entries))


class LdupProver(ProverMachine):
    def __init__(self, a: DenseMatrix, *, fact: LdupFactorization | None = None):
        super().__init__()
        if fact is None:
            try:
                fact = ldup(a)
            except SingularPivotError:
                raise WitnessUnavailable("matrix is singular") from None
        self.n, self.fact = a.n, fact
        self.answers = ldup_answers(a, fact)

    def script(self):
        yield ldup_commit(self.fact)
        yield from self._answer(ldup_rounds(self.n), *self.answers)


class LdupVerifier(MatrixVerifier):
    """Reads the ldup-commit, then asks the factorization's rounds.  A
    diagonal value that is not a residue aborts; images that are no
    permutation, or a zero on the diagonal, reject."""

    def _commit(self, rounds, streams: dict):
        """Read the commit into ``perm`` and ``diag``, then ask ``rounds(n)``
        with the stream's arrays and those of ``streams``."""
        n = self.a.n
        # the answers are the strict parts of rows and columns, whose last
        # coordinates stay zero by design
        self.drawn, self.strict, arrays = stream_layout("ldup", n, 1)
        msg = yield Receive("ldup-commit", None, (("perm", n), ("field", n)))
        dvals = self._residues(msg.parts[1].values)
        try:
            self.perm = Permutation(msg.parts[0].values)
        except ValueError:
            raise Reject("not-a-permutation") from None
        try:
            self.diag = Diagonal(self.a.field, dvals)
        except ValueError:
            raise Reject("d-not-invertible") from None
        p, xt = self.a.field.p, self.strict[0]
        yield from self._ask(
            rounds(n),
            {**arrays, **streams},
            forbid={"ldup-challenge-pair": lambda i: -xt[i] % p},
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
        self.meter.count_vector_op(3 * self.a.n)
        self.dxy = self.diag.apply(xyz[:2])
        self.meter.count_vector_op(2 * self.a.n)
        t = self.a.vecmat(drawn[2], meter=self.meter)
        return pairs_hold(self, self.dxy, xyz[2], drawn[:2], self.perm.apply_to_vector(t))

    def script(self):
        yield from self._commit(ldup_rounds, {})
        if not self._ldup_holds():
            raise Reject("final-check")
        return self.perm, self.diag


# Determinant ------------------------------------------------------------------


class DetProver(ProverMachine):
    def __init__(self, a: DenseMatrix):
        # one elimination serves both branches: the pivot columns of the
        # rank profile matrix are the column rank profile
        fact = pluq_rpm(a)
        self.singular = fact.r < a.n
        if self.singular:
            super().__init__(RankUpperProver(a, fact=fact))
        else:
            super().__init__(LdupProver(a, fact=ldup(a, fact)))

    def script(self):
        yield Send("det-mode", None, flag_part(self.singular))
        yield from super().script()


class DetVerifier(MatrixVerifier):
    def script(self):
        msg = yield Receive("det-mode", None, (("flag", 1),))
        singular = msg.parts[0].values[0]
        if singular not in (0, 1):
            raise MalformedCertificate("flag out of range")
        args = (self.a, self.sample_set, self.meter, self.challenges)
        if singular:
            yield from RankUpperVerifier(*args, require_claim_at_most=self.a.n - 1).script()
            return 0
        perm, diag = yield from LdupVerifier(*args).script()
        self.meter.count_vector_op(self.a.n - 1)  # diagonal product
        return (diag.product() * perm.sign()) % self.a.field.p
