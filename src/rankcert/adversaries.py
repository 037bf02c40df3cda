"""Cheating provers and the harness that measures how often they win.

Each attack bundles a concrete false statement with a prover that tries
to get it accepted, plus the theoretical ceiling on its success rate.
The harness replays the attack under many independent challenge streams
and reports the empirical rate next to that ceiling; staying below
ceiling plus sampling noise is what the soundness claims promise.

All attacks here are the natural strongest cheats for their protocol:
they answer honestly wherever honesty is possible and gamble on exactly
the challenge event the soundness analysis says they must gamble on.
Where an honest prover can run on a false statement, the attack is that
prover handed the false claim, on one factorization: the `pluq_rpm`
honest provers use, or for a column claim its `pluq_leading`.  Each
builder factors once, so a trial runs the protocol and nothing else.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .elimination import (
    LdupFactorization,
    PluqFactorization,
    ldup,
    pluq_leading,
    pluq_rpm,
    random_nonsingular,
    solve_leading_pivots,
)
from .field import PrimeField
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


# LDUP ----------------------------------------------------------------------------


def scaled_diagonal_factors(a: DenseMatrix, scale: int) -> LdupFactorization:
    """The LDUP factorization of A with its diagonal multiplied through by
    a constant and the upper factor divided by it to match, for the honest
    `LdupProver` to commit to.  D . U stays the elimination's, so only the
    diagonal changes.  No unit upper factor is consistent with the scaled
    diagonal, so the commitment is a lie; the weight responses stay honest
    and the lie must survive two dot product checks."""
    f = a.field
    c = scale % f.p
    if c in (0, 1):
        raise ValueError("scale must differ from 0 and 1")
    fact = ldup(a)
    return replace(fact, diag=Diagonal(f, tuple(v * c % f.p for v in fact.diag.entries)))


# Column rank profile --------------------------------------------------------------


class ShiftedProfileAttack:
    """Claims a column profile with the first true pivot swapped out for
    a later column.  The claimed columns stay independent, so the rank
    phase cannot tell; the honest stream on the claim has to explain the
    dropped pivot column and cannot.  Both honest provers run on the
    `pluq_leading` of A that showed the claim independent."""

    def __init__(self, a: DenseMatrix):
        true_cols = tuple(sorted(pluq_rpm(a).pivot_cols()))
        if not true_cols:
            raise ValueError("the zero matrix has nothing to shift")
        first, rest = true_cols[0], true_cols[1:]
        self.a = a
        for cstar in range(first + 1, a.n):
            if cstar in true_cols:
                continue
            self.cols = tuple(sorted(rest + (cstar,)))
            self.fact = pluq_leading(a, self.cols)
            if tuple(sorted(self.fact.pivot_cols())) == self.cols:
                return
        raise ValueError("no independent replacement column exists")

    def prover(self) -> ProverMachine:
        """The claim, then the honest stream on it."""
        return chain(
            RankLowerProver(self.a, claimed_cols=self.cols, fact=self.fact),
            CrpStreamProver(self.a, self.cols, fact=self.fact),
        )


# Determinant -----------------------------------------------------------------------


class FalseSingularProver(ProverMachine):
    """Calls a nonsingular A singular and claims rank n - 1 in the rank
    upper bound, on ``fact``, a `pluq_rpm` of A.  Its witness is the only
    preimage of w = A.v, v itself, so it passes exactly when v has a zero
    entry."""

    def __init__(self, a: DenseMatrix, fact: PluqFactorization):
        super().__init__()
        self._send("det-mode", None, flag_part(True))
        self.inner = RankUpperProver(a, a.n - 1, fact=fact)


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


def ceiling(exact: Fraction) -> float:
    """``exact`` as a float never below it: the nearest float, or the next
    one up where the nearest falls short, so that an attack that meets its
    bound exactly is never over it."""
    x = float(exact)
    return x if Fraction(x) >= exact else math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Attack:
    """One fixed false statement, a cheating prover for it and the ceiling
    on how often that prover wins (|S| = p: every verifier draws from the
    whole field), rounded up from the exact bound (`ceiling`).
    ``prover(trial_seed)`` builds a fresh cheating prover for one trial, or
    returns None for the honest one; whatever it factors is factored once,
    by the attack's builder."""

    name: str
    protocol: str
    matrices: tuple[DenseMatrix, ...]
    prover: Callable[[int], ProverMachine | None]
    ceiling: float

    def bound(self) -> float:
        return self.ceiling

    def run_once(self, trial_seed: int) -> bool:
        """One run of the protocol under the challenges of ``trial_seed``."""
        ch = InteractiveChallenges(trial_seed)
        res = runner(self.protocol)(self.matrices, ch, self.prover(trial_seed))
        return res.verdict.accepted


def freivalds_forge(field: PrimeField, seed: int) -> Attack:
    """A product with one entry off, offered to the silent honest prover."""
    rng = random.Random(seed)
    a = random_nonsingular(field, 3, rng)
    b = random_nonsingular(field, 3, rng)
    mats = (a, b, forged_product(a, b))
    return Attack("freivalds", "freivalds", mats, lambda t: None, ceiling(Fraction(1, field.p)))


def triangular_ghost(field: PrimeField, seed: int) -> Attack:
    """B = A.T for a T that is not unit lower triangular, streamed by the
    ghost witness prover."""
    rng = random.Random(seed)
    a = random_nonsingular(field, 3, rng)
    # multiply by I plus one entry ABOVE the diagonal: reachable by a
    # full witness, never by a unit lower triangular one
    m = np.eye(3, dtype=np.int64)
    m[0, 1] = 1 + rng.randrange(field.p - 1)
    b = a @ DenseMatrix(field, m)
    witness = full_witness(a, b)

    def ghost(t: int) -> ProverMachine:
        return GhostWitnessProver(a, witness, random.Random(t + 1), variant="lower")

    return Attack("tri-equiv", "tri-equiv-lower", (a, b), ghost, ceiling(Fraction(1, field.p)))


def grp_forge(field: PrimeField, seed: int) -> Attack:
    """The swap matrix claimed to have a generic rank profile, run by the
    honest prover on the factors of its PIVOTED elimination."""
    # nonsingular, vanishing leading minor, and the pivoted factor
    # product differs from it by a rank one matrix
    a = DenseMatrix(field, np.array([[0, 1], [1, 0]], dtype=np.int64))
    fact, s = pluq_rpm(a), Fraction(1, field.p)
    factors = (fact.lower, fact.upper)
    # one shot at annihilating the rank one gap with the weights plus
    # a doubly lucky pair of fresh challenge vectors
    bound = ceiling(s + s * s)
    return Attack("grp", "grp", (a,), lambda t: GrpProver(a, factors=factors), bound)


def scaled_diagonal(field: PrimeField, seed: int) -> Attack:
    """An LDUP commitment whose diagonal is scaled by 2."""
    a = random_nonsingular(field, 3, random.Random(seed))
    fake = scaled_diagonal_factors(a, 2)
    # two dot product identities must both come out right
    bound = ceiling(Fraction(2, field.p))
    return Attack("ldup", "ldup", (a,), lambda t: LdupProver(a, fact=fake), bound)


def profile_shift(field: PrimeField, seed: int) -> Attack:
    """A column rank profile with its first pivot shifted right."""
    # column 1 is a multiple of the dropped pivot column 0, so the
    # shifted claim stays independent and the only leak is the locally
    # drawn coefficient; the multiple is 2 unless 2 is no residue
    k = 2 % field.p or 1
    a = DenseMatrix(field, np.array([[1, k, 0], [1, k, 1]], dtype=np.int64))
    shifted = ShiftedProfileAttack(a)
    return Attack("crp", "crp", (a,), lambda t: shifted.prover(), ceiling(Fraction(1, field.p)))


def false_singular(field: PrimeField, seed: int) -> Attack:
    """A nonsingular A called singular."""
    a = random_nonsingular(field, 3, random.Random(seed))
    fact = pluq_rpm(a)
    # the witness v fits under the claim once one of its n entries is 0;
    # the same formula in floats lands above the exact bound at some p (7
    # ulps at p = 101) and below it at others, and where it is above it
    # stays the ceiling, so that no declared ceiling moves down
    bound = max(ceiling(1 - (1 - Fraction(1, field.p)) ** a.n), 1.0 - (1.0 - 1.0 / field.p) ** a.n)
    return Attack("det", "det", (a,), lambda t: FalseSingularProver(a, fact), bound)


ATTACKS: dict[str, Callable[[PrimeField, int], Attack]] = {
    "freivalds": freivalds_forge,
    "tri-equiv": triangular_ghost,
    "grp": grp_forge,
    "ldup": scaled_diagonal,
    "crp": profile_shift,
    "det": false_singular,
}


def measure(attack: Attack, trials: int, seed: int) -> AttackReport:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    hits = sum(attack.run_once(seed * 1_000_003 + t) for t in range(trials))
    return AttackReport(attack.name, trials, hits, attack.bound())
