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
from ..matrix import DenseMatrix, Permutation, RankProfileMatrix, dot_mod
from .base import (
    ChallengeSource,
    CostMeter,
    Message,
    ProverMachine,
    Round,
    VerifierMachine,
    WitnessUnavailable,
    chain,
    field_part,
    schedule,
)
from .grp import pairs_hold
from .ldup import LdupVerifier, ldup_answers, ldup_rounds, send_commit
from .rank import ColumnClaimProver, ColumnClaimVerifier, RankLowerProver, RankLowerVerifier


# Column rank profile ----------------------------------------------------------


@schedule
def crp_rounds(r: int) -> tuple[Round, ...]:
    """Coefficient x_j answered by y_(j-1), from j = r down to 1."""
    return tuple(("crp-x", j, 1, "crp-y", j - 1) for j in range(r, 0, -1))


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
        self._await("crp-mask", None, (("field", a.n),), self._on_mask)

    def _on_mask(self, msg: Message) -> None:
        step = self._solve_gamma(msg.vector())
        self._answer(
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
        self.cols = tuple(int(c) for c in cols)
        self.r = len(self.cols)
        self.v = challenges.draw_vector(sample_set.star(), a.n)
        self.xs = np.zeros(self.r + 1, dtype=np.int64)
        self.ys = np.zeros(max(self.r, 1), dtype=np.int64)
        self._send("crp-mask", None, field_part(self.v))
        self._ask(crp_rounds(self.r), {"crp-x": (self.xs,), "crp-y": (self.ys,)})

    def _final_check(self) -> None:
        p = self.a.field.p
        n = self.a.n
        # the coefficient for the rank-zero column never leaves this machine
        self.xs[0] = self.challenges.draw(self.sample_set)
        # suffix sums of at most 2^20 + 1 residues stay below 2^51
        suffix = np.cumsum(self.xs[::-1])[::-1] % p
        self.meter.count_vector_op(self.r + 1)
        counts = np.searchsorted(self.cols, np.arange(n), side="right")
        z = (self.v * suffix[counts]) % p
        self.meter.count_vector_op(n)
        if self.r:
            z[list(self.cols)] = (z[list(self.cols)] - self.ys[: self.r]) % p
            self.meter.count_vector_op(self.r)
        az = self.a.matvec(z, meter=self.meter)
        if np.any(az):
            self._reject("final-check")
        else:
            self._accept(self.cols)


class CrpVerifier(VerifierMachine):
    """A column claim, then the stream that shows the claimed columns are
    the column rank profile.  ``claim`` checks the claim: the rank lower
    bound, or a bare ColumnClaimVerifier where independence is certified
    elsewhere."""

    def __init__(self, claim: ColumnClaimVerifier):
        super().__init__(claim.sample_set, claim.meter, claim.challenges)
        self.a = claim.a
        self._delegate(claim, self._on_claim)

    def _on_claim(self, cols: tuple[int, ...]) -> None:
        stream = CrpStreamVerifier(self.a, cols, self.sample_set, self.meter, self.challenges)
        self._delegate(stream, self._accept)


def crp_prover(a: DenseMatrix) -> ProverMachine:
    """The honest column profile prover: the claim's factorization serves
    the stream too."""
    fact = pluq_rpm(a)
    claim = RankLowerProver(a, fact=fact)
    return chain(claim, CrpStreamProver(a, claim.cols, fact=fact))


def crp_verifier(
    a: DenseMatrix,
    sample_set: SampleSet,
    meter: CostMeter,
    challenges: ChallengeSource,
) -> CrpVerifier:
    """The column profile verifier, its claim checked by the rank lower
    bound."""
    return CrpVerifier(RankLowerVerifier(a, sample_set, meter, challenges))


# Invertible case ----------------------------------------------------------------


@schedule
def rpm_rounds(n: int) -> tuple[Round, ...]:
    """Entry e_i answered by f_i, ascending, then the factorization's
    rounds."""
    return tuple(("rpm-e", i, 1, "rpm-f", i) for i in range(n)) + ldup_rounds(n)


class RpmInvertibleProver(ProverMachine):
    """``rpm`` is ``pluq_rpm(a)`` when the caller has already computed it."""

    def __init__(self, a: DenseMatrix, *, rpm: PluqFactorization | None = None):
        super().__init__()
        try:
            fact = ldup(a, rpm)
        except SingularPivotError:
            raise WitnessUnavailable("matrix is singular") from None
        send_commit(self, fact)
        f = a.field
        # U = D . U1, the upper factor of the elimination, conjugated by
        # the committed permutation
        img = list(fact.perm.images)
        ubar = fact.du.array[np.ix_(img, img)]
        es = np.zeros(a.n, dtype=np.int64)
        arrays, respond = ldup_answers(a, fact)
        self._answer(
            rpm_rounds(a.n),
            {"rpm-e": (es,), **arrays},
            {"rpm-e": lambda i: (dot_mod(f, es[: i + 1], ubar[: i + 1, i]),), **respond},
        )


class RpmInvertibleVerifier(LdupVerifier):
    """The factorization's verifier on the merged schedule, with the
    profile check after its final identity."""

    rounds = staticmethod(rpm_rounds)

    def __init__(
        self,
        a: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
    ):
        super().__init__(a, sample_set, meter, challenges)
        self.es, self.fs = np.zeros((2, self.n), dtype=np.int64)
        self._streams.update({"rpm-e": (self.es,), "rpm-f": (self.fs,)})

    def _final_check(self) -> None:
        if not self._ldup_holds():
            self._reject("final-check")
            return
        # P^-1 . D . x against e and P^-1 . phi against f, as one pair
        img = list(self.perm.images)
        dx, phi = self.dxy[:1, img], self.drawn[:1, img]
        if pairs_hold(self, dx, self.es, phi, self.fs):
            self._accept(self.perm)
        else:
            self._reject("profile-check")


# Full rank profile matrix -------------------------------------------------------


def rpm_prover(a: DenseMatrix) -> ProverMachine:
    """The honest prover of each phase, chained, all on one `pluq_rpm` of
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
    return chain(*phases)


class RpmVerifier(VerifierMachine):
    """Column profile with the independence check, row profile with
    independence implied by equal rank, then the invertible case on the
    pivot crossing submatrix."""

    def __init__(
        self,
        a: DenseMatrix,
        sample_set: SampleSet,
        meter: CostMeter,
        challenges: ChallengeSource,
    ):
        super().__init__(sample_set, meter, challenges)
        self.a = a
        self.cols: tuple[int, ...] = ()
        self._delegate(crp_verifier(a, sample_set, meter, challenges), self._on_cols)

    def _on_cols(self, cols: tuple[int, ...]) -> None:
        self.cols = cols
        at = self.a.transpose()
        claim = ColumnClaimVerifier(at, self.sample_set, self.meter, self.challenges)
        self._delegate(CrpVerifier(claim), self._on_rows)

    def _on_rows(self, rows: tuple[int, ...]) -> None:
        cols = self.cols
        m, n = self.a.shape
        if len(rows) != len(cols):
            self._reject("rank-mismatch")
        elif not cols:
            self._accept(RankProfileMatrix(m, n, ()))
        else:
            crossing = RpmInvertibleVerifier(
                self.a.submatrix(rows, cols), self.sample_set, self.meter, self.challenges
            )

            def on_perm(perm: Permutation) -> None:
                positions = [(rows[perm(j)], cols[j]) for j in range(len(cols))]
                self._accept(RankProfileMatrix(m, n, positions))

            self._delegate(crossing, on_perm)
