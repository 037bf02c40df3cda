"""Rank profile protocols.

Column rank profile: the prover claims the pivot columns, proves them
independent (rank.py's rank lower bound), then must show that
every column left of pivot j reduces to a combination of earlier
pivots.  The verifier hides that whole family of claims inside one
random vector: it draws invertible per-column weights v, streams
coefficients x_r..x_1 downward, keeps x_0 to itself, and asks for the
combination coefficients row by row.  One final product A.z == 0 ties
it together.  Row rank profile is the same run on the transpose.  The
honest prover reads the coefficients off the PLUQ that named the pivots:
on the pivot rows L^-1 . A is U . Q, so they are U^-1 applied to prefix
sums of U . Q.  The rounds ask for them last first, and U in column order
is upper triangular, so each answer is one back-substitution step on the
challenges and answers already sent; nothing is solved.

Invertible case: the rank profile matrix of a nonsingular matrix is a
permutation.  The prover commits to it together with the factorization
diagonal in one ldup-commit, answers an ascending stream against the
permuted upper factor (ascending order is what pins triangularity after
conjugation), and the factorization protocol's rounds follow in the same
schedule, on the same commitment.  One extra pair of dot products
connects the stream to the factorization's own final identity.

Full rank profile matrix: column profile, then row profile, whose bare
column claim on the transpose needs no independence proof since equal
rank implies it, then the invertible case on the pivot crossing.
"""

from __future__ import annotations

import numpy as np

from ..elimination import (
    BackSubstitution,
    PluqFactorization,
    SingularPivotError,
    cut_to_counts,
    ldup,
    pluq_leading,
    pluq_rpm,
)
from ..field import SampleSet
from ..matrix import DenseMatrix, RankProfileMatrix, dot_mod
from .base import (
    Block,
    ChallengeSource,
    CostMeter,
    MatrixVerifier,
    ProverMachine,
    Receive,
    Reject,
    Send,
    Step,
    VerifierMachine,
    WitnessUnavailable,
    field_part,
)
from .grp import pairs_hold
from .ldup import LdupVerifier, ldup_answers, ldup_commit, ldup_rounds
from .rank import ColumnClaimProver, ColumnClaimVerifier, RankLowerProver, RankLowerVerifier


# Column rank profile ----------------------------------------------------------


def crp_rounds(r: int) -> tuple[Block]:
    """Coefficient x_j answered by y_(j-1), from j = r down to 1."""
    return (Block(range(r, 0, -1), (Step("crp-x", 1, "crp-y", -1),)),)


class CrpStreamProver(ProverMachine):
    """Second half of the column profile run: stream back the reduction
    coefficients under the verifier's weights, one back-substitution step
    per round.

    ``fact`` factors A with ``cols`` as its pivot columns, such as the
    one the claim came from; without it the `pluq_leading` of A on
    ``cols`` is built when the weights arrive.
    """

    def __init__(
        self,
        a: DenseMatrix,
        cols: tuple[int, ...],
        *,
        fact: PluqFactorization | None = None,
    ):
        super().__init__()
        self.a = a
        self.cols = tuple(int(c) for c in cols)
        self.r = len(self.cols)
        self.field = a.field
        self.fact = fact

    def script(self):
        msg = yield Receive("crp-mask", None, (("field", self.a.n),))
        step = self._solve_gamma(msg.vector())
        yield from self._answer(
            crp_rounds(self.r),
            {"crp-x": (step.xs,)},
            {"crp-x": lambda j: (step(j - 1),)},
        )

    def _solve_gamma(self, v: np.ndarray) -> BackSubstitution:
        """The back substitution whose step j - 1 answers round j with
        y_(j-1) = gamma[j-1] . x, for the strictly upper trapezoid gamma
        with A_J . gamma = A . diag(v) . W; gamma itself is never formed.

        Column j of the right-hand side is the prefix sum of A . diag(v)
        up to the bound of claimed column j, and column j of gamma uses
        the first j claimed columns only.  On its pivot rows A is
        L[:r] . U . Q, so T = L[:r]^-1 . rhs is the same prefix sums taken
        of U . Q . diag(v), with no forward solve.  T, with a zero column
        for x_0, is cut to the counts 0..r as in `solve_pivot_block`, and
        claimed column i is pivot i in column order, at x_i.  A claim
        that is not exactly the pivots of the factorization built here
        raises SingularPivotError.
        """
        p, r = self.field.p, self.r
        fact = self.fact
        if fact is None:
            fact = pluq_leading(self.a, self.cols)
            if tuple(sorted(fact.pivot_cols())) != self.cols:
                raise SingularPivotError("the claimed columns are not the pivots of A")
        t = np.zeros((r, r + 1), dtype=np.int64)
        if r:
            bounds = np.array(self.cols[1:] + (self.a.n,)) - 1
            uq = fact.upper.array[:, list(fact.col_perm.images)]
            t[:, 1:] = np.cumsum(uq * v % p, axis=1)[:, bounds] % p  # U . Q . diag(v) . W
        return BackSubstitution(fact, cut_to_counts(fact, t, np.arange(r + 1)), range(r))


class CrpStreamVerifier(VerifierMachine):
    def __init__(
        self,
        a: DenseMatrix,
        cols: tuple[int, ...],
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
    ):
        super().__init__(sample_set, meter, challenges)
        self.a = a
        self.cols = tuple(map(int, cols))

    def script(self):
        p, n, r, at = self.a.field.p, self.a.n, len(self.cols), list(self.cols)
        v = self.challenges.draw_vector(self.sample_set.star(), n)
        xs = np.zeros(r + 1, dtype=np.int64)
        ys = np.zeros(max(r, 1), dtype=np.int64)
        yield Send("crp-mask", None, field_part(v))
        yield from self._ask(crp_rounds(r), {"crp-x": (xs,), "crp-y": (ys,)})
        # the coefficient for the rank-zero column never leaves this machine
        xs[0] = self.challenges.draw(self.sample_set)
        # suffix sums of at most 2^20 + 1 residues stay below 2^51
        suffix = np.cumsum(xs[::-1])[::-1] % p
        self.meter.count_vector_op(r + 1)
        # a product of two residues less a residue stays inside an int64
        z = v * suffix[np.searchsorted(at, np.arange(n), side="right")]
        z[at] -= ys[:r]
        z %= p
        self.meter.count_vector_op(n + r)
        if self.a.matvec(z, meter=self.meter).any():
            raise Reject("final-check")
        return self.cols


class CrpVerifier(MatrixVerifier):
    """A column claim, then the stream that shows the claimed columns are
    the column rank profile.  The verifier class ``claim`` checks the
    claim: the rank lower bound, or a bare ColumnClaimVerifier where
    independence is certified elsewhere."""

    claim = RankLowerVerifier

    def script(self):
        args = (self.sample_set, self.meter, self.challenges)
        cols = yield from self.claim(self.a, *args).script()
        return (yield from CrpStreamVerifier(self.a, cols, *args).script())


class _RowProfileVerifier(CrpVerifier):
    """The column profile of the transpose on a bare claim, where equal
    rank implies independence."""

    claim = ColumnClaimVerifier


def crp_prover(a: DenseMatrix) -> ProverMachine:
    """The honest column profile prover, the claim then the stream: the
    claim's factorization serves the stream too."""
    fact = pluq_rpm(a)
    claim = RankLowerProver(a, fact=fact)
    return ProverMachine(claim, CrpStreamProver(a, claim.cols, fact=fact))


# Invertible case ----------------------------------------------------------------


def rpm_rounds(n: int) -> tuple[Block, Block]:
    """Entry e_i answered by f_i, ascending, then the factorization's
    rounds."""
    return (Block(range(n), (Step("rpm-e", 1, "rpm-f"),)),) + ldup_rounds(n)


class RpmInvertibleProver(ProverMachine):
    """``rpm`` is ``pluq_rpm(a)`` when the caller has already computed it."""

    def __init__(self, a: DenseMatrix, *, rpm: PluqFactorization | None = None):
        super().__init__()
        try:
            self.fact = fact = ldup(a, rpm)
        except SingularPivotError:
            raise WitnessUnavailable("matrix is singular") from None
        f = a.field
        # U = D . U1, the upper factor of the elimination, conjugated by
        # the committed permutation
        img = list(fact.perm.images)
        ubar = fact.du.array[np.ix_(img, img)]
        es = np.zeros(a.n, dtype=np.int64)
        arrays, respond = ldup_answers(a, fact)
        self.n = a.n
        self.arrays = {"rpm-e": (es,), **arrays}
        self.respond = {"rpm-e": lambda i: (dot_mod(f, es[: i + 1], ubar[: i + 1, i]),), **respond}

    def script(self):
        yield ldup_commit(self.fact)
        yield from self._answer(rpm_rounds(self.n), self.arrays, self.respond)


class RpmInvertibleVerifier(LdupVerifier):
    """The factorization's verifier on the merged schedule, with the
    profile check after its final identity."""

    def script(self):
        es, fs = np.zeros((2, self.a.n), dtype=np.int64)
        yield from self._commit(rpm_rounds, {"rpm-e": (es,), "rpm-f": (fs,)})
        if not self._ldup_holds():
            raise Reject("final-check")
        # P^-1 . D . x against e and P^-1 . phi against f, as one pair
        img = list(self.perm.images)
        dx, phi = self.dxy[:1, img], self.drawn[:1, img]
        if not pairs_hold(self, dx, es, phi, fs):
            raise Reject("profile-check")
        return self.perm


# Full rank profile matrix -------------------------------------------------------


def rpm_prover(a: DenseMatrix) -> ProverMachine:
    """The honest prover of each phase in turn, all on one `pluq_rpm` of
    A: its pivot columns are the column profile and its pivot rows the
    row profile; the row phase runs on its transpose and the invertible
    case, when the rank is positive, on its pivot crossing."""
    fact = pluq_rpm(a)
    claim = RankLowerProver(a, fact=fact)
    cols, rows = claim.cols, fact.pivot_rows()
    phases = [
        claim,
        CrpStreamProver(a, cols, fact=fact),
        ColumnClaimProver(rows),
        CrpStreamProver(a.transpose(), rows, fact=fact.transpose()),
    ]
    if cols:
        phases.append(RpmInvertibleProver(a.submatrix(rows, cols), rpm=fact.crossing()))
    return ProverMachine(*phases)


class RpmVerifier(MatrixVerifier):
    """Column profile with the independence check, row profile with
    independence implied by equal rank, then the invertible case on the
    pivot crossing submatrix."""

    def script(self):
        a, (m, n) = self.a, self.a.shape
        args = (self.sample_set, self.meter, self.challenges)
        cols = yield from CrpVerifier(a, *args).script()
        rows = yield from _RowProfileVerifier(a.transpose(), *args).script()
        if len(rows) != len(cols):
            raise Reject("rank-mismatch")
        if not cols:
            return RankProfileMatrix(m, n, ())
        perm = yield from RpmInvertibleVerifier(a.submatrix(rows, cols), *args).script()
        return RankProfileMatrix(m, n, [(rows[perm(j)], cols[j]) for j in range(len(cols))])
