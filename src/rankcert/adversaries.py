"""Cheating provers and the harness that measures how often they win.

Each attack bundles a concrete false statement with a prover that tries
to get it accepted, plus the theoretical ceiling on its success rate.
The harness replays the attack under many independent challenge streams
and reports the empirical rate next to that ceiling; staying below
ceiling plus sampling noise is what the soundness claims promise.

All attacks here are the natural strongest cheats for their protocol:
they answer honestly wherever honesty is possible and gamble on exactly
the challenge event the soundness analysis says they must gamble on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .elimination import (
    InconsistentSystemError,
    LdupFactorization,
    SingularPivotError,
    ldup,
    pluq_crp,
    pluq_rpm,
    random_nonsingular,
    solve_consistent,
    solve_leading_pivots,
)
from .field import PrimeField, SampleSet
from .matrix import DenseMatrix, Diagonal, dot_mod
from .protocols.base import InteractiveChallenges, ProverMachine, chain, flag_part
from .protocols.equivalence import tri_rounds
from .protocols.grp import GrpProver
from .protocols.ldup import LdupProver
from .protocols.profiles import CrpStreamProver
from .protocols.rank import RankLowerProver, RankUpperProver
from .protocols.wire import runner


# Freivalds ---------------------------------------------------------------------


def forged_product(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """A.B with a single corrupted entry; the classic undetectable-looking lie."""
    c = (a @ b).array.copy()
    c[0, 0] = (c[0, 0] + 1) % a.field.p
    return DenseMatrix(a.field, c)


# Triangular equivalence ---------------------------------------------------------


class GhostWitnessProver(ProverMachine):
    """Answers the streaming rounds from a witness that is NOT triangular,
    filling the not-yet-revealed challenge entries with standing guesses.
    Wins exactly when the guesses collide with the later draws."""

    def __init__(
        self,
        a: DenseMatrix,
        full_witness: DenseMatrix,
        rng: random.Random,
        variant: str = "lower",
    ):
        super().__init__()
        f, w = a.field, full_witness.array
        # each guess is overwritten by the real draw as it arrives
        xs = np.array([rng.randrange(f.p) for _ in range(a.n)], dtype=np.int64)
        self._answer(
            tri_rounds(a.n, variant),
            {"tri-challenge": (xs,)},
            {"tri-challenge": lambda i: (dot_mod(f, w[i], xs),)},
        )


def full_witness(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Any T with A.T = B, no triangularity asked: every column solved on
    all pivots of one elimination of A."""
    fact = pluq_rpm(a)
    t = solve_leading_pivots(fact, b.array, np.full(a.n, fact.r))
    return DenseMatrix(a.field, t)


# Generic rank profile ------------------------------------------------------------


class GrpForgeProver(GrpProver):
    """Runs the honest rounds on the factors of the PIVOTED elimination,
    silently dropping the permutations.  The product of those factors
    differs from A, so the final bilinear identity only holds on a
    coincidence."""

    def __init__(self, a: DenseMatrix):
        fact = pluq_crp(a)
        if fact.r != a.n:
            raise ValueError("forge wants a nonsingular instance")
        super().__init__(a, factors=(fact.lower, fact.upper))


# LDUP ----------------------------------------------------------------------------


def scaled_diagonal_prover(a: DenseMatrix, scale: int) -> LdupProver:
    """Commits to the diagonal multiplied through by a constant and
    rescales the upper-factor responses to match.  No unit upper factor
    is consistent with the scaled diagonal, so the commitment is a lie;
    the weight responses stay honest and the lie must survive two dot
    product checks."""
    f = a.field
    c = scale % f.p
    if c in (0, 1):
        raise ValueError("scale must differ from 0 and 1")
    fact = ldup(a)
    ci = f.inv(c)
    fake = LdupFactorization(
        field=f,
        n=fact.n,
        lower=fact.lower,
        diag=Diagonal(f, tuple(v * c % f.p for v in fact.diag.entries)),
        # round answers only read the strictly upper part, so scaling the
        # whole array is the same as scaling the strict part
        upper=DenseMatrix(f, (fact.upper.array * ci) % f.p),
        perm=fact.perm,
    )
    return LdupProver(a, fact=fake)


# Column rank profile --------------------------------------------------------------


class BestEffortStreamProver(CrpStreamProver):
    """The honest streaming logic pointed at a wrong column claim; the
    coefficient solves are done wherever they exist and zeroed where
    they do not."""

    def _solve_gamma(self, v: np.ndarray) -> np.ndarray:
        r, n = self.r, self.a.n
        gamma = np.zeros((r, r + 1), dtype=np.int64)
        if r == 0:
            return gamma
        try:
            return super()._solve_gamma(v)
        except (SingularPivotError, InconsistentSystemError):
            pass
        rows = tuple(range(self.a.m))
        for j in range(1, r + 1):
            bound = self.cols[j] if j < r else n
            masked = np.where(np.arange(n) < bound, v, 0)
            rhs = self.a.matvec(masked)
            try:
                gamma[:j, j] = solve_consistent(
                    self.a.submatrix(rows, self.cols[:j]), rhs
                )
            except InconsistentSystemError:
                pass
        return gamma


class ShiftedProfileAttack:
    """Claims a column profile with the first true pivot swapped out for
    a later column.  The claimed columns stay independent, so the rank
    phase cannot tell; the streaming phase has to explain the dropped
    pivot column and cannot."""

    def __init__(self, a: DenseMatrix):
        fact = pluq_crp(a)
        true_cols = fact.pivot_cols()
        if not true_cols:
            raise ValueError("the zero matrix has nothing to shift")
        first, rest = true_cols[0], true_cols[1:]
        self.a = a
        self.cols: tuple[int, ...] | None = None
        for cstar in range(first + 1, a.n):
            if cstar in true_cols:
                continue
            cand = tuple(sorted(rest + (cstar,)))
            sub = a.submatrix(tuple(range(a.m)), cand)
            if pluq_crp(sub).r == len(cand):
                self.cols = cand
                break
        if self.cols is None:
            raise ValueError("no independent replacement column exists")

    def prover(self) -> ProverMachine:
        """The claim, then the best-effort stream on it."""
        return chain(
            RankLowerProver(self.a, claimed_cols=self.cols),
            BestEffortStreamProver(self.a, self.cols),
        )


# Determinant -----------------------------------------------------------------------


class FalseSingularProver(ProverMachine):
    """Calls a nonsingular A singular and claims rank n - 1 in the rank
    upper bound.  Its witness is the only preimage of w = A.v, v itself,
    so it passes exactly when v has a zero entry."""

    def __init__(self, a: DenseMatrix):
        super().__init__()
        self._send("det-mode", None, flag_part(True))
        self.inner = RankUpperProver(a, a.n - 1)


# Harness ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackReport:
    name: str
    trials: int
    hits: int
    bound: float

    @property
    def rate(self) -> float:
        return self.hits / self.trials

    @property
    def threshold(self) -> float:
        """Ceiling plus three standard deviations of the sampling noise."""
        sigma = math.sqrt(self.bound * (1.0 - self.bound) / self.trials)
        return self.bound + 3.0 * sigma

    @property
    def within_bound(self) -> bool:
        return self.rate <= self.threshold


class Attack:
    """One fixed false statement plus a cheating prover for it."""

    name = "attack"

    def __init__(self, field: PrimeField, seed: int):
        self.field = field
        self.seed = seed
        self.sample_set = SampleSet(field)
        self._build(random.Random(seed))

    def _build(self, rng: random.Random) -> None:
        raise NotImplementedError

    def bound(self) -> float:
        raise NotImplementedError

    def run_once(self, trial_seed: int) -> bool:
        raise NotImplementedError


class FreivaldsForgeAttack(Attack):
    name = "freivalds"

    def _build(self, rng: random.Random) -> None:
        self.a = random_nonsingular(self.field, 3, rng)
        self.b = random_nonsingular(self.field, 3, rng)
        self.c = forged_product(self.a, self.b)

    def bound(self) -> float:
        return 1.0 / self.sample_set.size

    def run_once(self, trial_seed: int) -> bool:
        ch = InteractiveChallenges(trial_seed)
        res = runner("freivalds")((self.a, self.b, self.c), ch, None)
        return res.verdict.accepted


class TriangularGhostAttack(Attack):
    name = "tri-equiv"

    def _build(self, rng: random.Random) -> None:
        self.a = random_nonsingular(self.field, 3, rng)
        # multiply by I plus one entry ABOVE the diagonal: reachable by a
        # full witness, never by a unit lower triangular one
        m = np.eye(3, dtype=np.int64)
        m[0, 1] = 1 + rng.randrange(self.field.p - 1)
        self.b = self.a @ DenseMatrix(self.field, m)
        self.witness = full_witness(self.a, self.b)

    def bound(self) -> float:
        return 1.0 / self.sample_set.size

    def run_once(self, trial_seed: int) -> bool:
        ch = InteractiveChallenges(trial_seed)
        prover = GhostWitnessProver(
            self.a, self.witness, random.Random(trial_seed + 1), variant="lower"
        )
        res = runner("tri-equiv-lower")((self.a, self.b), ch, prover)
        return res.verdict.accepted


class GrpForgeAttack(Attack):
    name = "grp"

    def _build(self, rng: random.Random) -> None:
        # the swap matrix: nonsingular, vanishing leading minor, and the
        # pivoted factor product differs from it by a rank one matrix
        self.a = DenseMatrix(
            self.field, np.array([[0, 1], [1, 0]], dtype=np.int64)
        )

    def bound(self) -> float:
        s = self.sample_set.size
        # one shot at annihilating the rank one gap with the weights plus
        # a doubly lucky pair of fresh challenge vectors
        return 1.0 / s + 1.0 / (s * s)

    def run_once(self, trial_seed: int) -> bool:
        ch = InteractiveChallenges(trial_seed)
        res = runner("grp")((self.a,), ch, GrpForgeProver(self.a))
        return res.verdict.accepted


class ScaledDiagonalAttack(Attack):
    name = "ldup"

    def _build(self, rng: random.Random) -> None:
        self.a = random_nonsingular(self.field, 3, rng)
        self.scale = 2

    def bound(self) -> float:
        # two dot product identities must both come out right
        return 2.0 / self.sample_set.size

    def run_once(self, trial_seed: int) -> bool:
        ch = InteractiveChallenges(trial_seed)
        prover = scaled_diagonal_prover(self.a, self.scale)
        res = runner("ldup")((self.a,), ch, prover)
        return res.verdict.accepted


class ProfileShiftAttack(Attack):
    name = "crp"

    def _build(self, rng: random.Random) -> None:
        # column 1 is a multiple of the dropped pivot column 0, so the
        # shifted claim stays independent and the only leak is the
        # locally drawn coefficient
        self.a = DenseMatrix(
            self.field, np.array([[1, 2, 0], [1, 2, 1]], dtype=np.int64)
        )
        self.attack = ShiftedProfileAttack(self.a)

    def bound(self) -> float:
        return 1.0 / self.sample_set.size

    def run_once(self, trial_seed: int) -> bool:
        ch = InteractiveChallenges(trial_seed)
        res = runner("crp")((self.a,), ch, self.attack.prover())
        return res.verdict.accepted


class FalseSingularAttack(Attack):
    name = "det"

    def _build(self, rng: random.Random) -> None:
        self.a = random_nonsingular(self.field, 3, rng)

    def bound(self) -> float:
        # the witness v fits under the claim once one of its n entries is 0
        return 1.0 - (1.0 - 1.0 / self.sample_set.size) ** self.a.n

    def run_once(self, trial_seed: int) -> bool:
        ch = InteractiveChallenges(trial_seed)
        res = runner("det")((self.a,), ch, FalseSingularProver(self.a))
        return res.verdict.accepted


ATTACKS = {
    cls.name: cls
    for cls in (
        FreivaldsForgeAttack,
        TriangularGhostAttack,
        GrpForgeAttack,
        ScaledDiagonalAttack,
        ProfileShiftAttack,
        FalseSingularAttack,
    )
}


def measure(attack: Attack, trials: int, seed: int) -> AttackReport:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    hits = 0
    for t in range(trials):
        if attack.run_once(seed * 1_000_003 + t):
            hits += 1
    return AttackReport(attack.name, trials, hits, attack.bound())
