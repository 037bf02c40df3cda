"""Exact acceptance of every shipped attack on tiny fields.

An odometer over the verifier's draws runs each attack once per
challenge sequence, so the rate it sums is the attack's exact acceptance
probability, not a sample of it.  Each value is pinned and held under its
analytic ceiling, written here as an exact fraction.
"""

from fractions import Fraction

import pytest

from rankcert.adversaries import ATTACKS
from rankcert.field import PrimeField, SampleSet
from rankcert.protocols.base import ChallengeSource, ProtocolAbort
from rankcert.protocols.wire import runner


class OdometerChallenges(ChallengeSource):
    """Every challenge sequence in turn.  Draw j takes digit j of the
    current leaf, an index among the k values ``SampleSet.bounds(forbid)``
    leaves, and a run that draws past the digits it has starts new ones at
    0.  A leaf weighs the product of 1/k over its draws.  ``advance`` turns
    the last digit that can still move and drops the ones after it."""

    def __init__(self):
        self.digits: list[list[int]] = []  # [digit, k] per draw of the leaf
        self.depth = 0

    def draw(self, sample_set: SampleSet, forbid=()) -> int:
        skip, k, _ = sample_set.bounds(forbid)
        if self.depth == len(self.digits):
            self.digits.append([0, k])
        digit, known = self.digits[self.depth]
        assert known == k, "a draw's range changed under the same prefix"
        self.depth += 1
        return SampleSet.nth(digit, skip)

    def weight(self) -> Fraction:
        w = Fraction(1)
        for _, k in self.digits:
            w /= k
        return w

    def advance(self) -> bool:
        assert self.depth == len(self.digits), "a run stopped short of its prefix"
        while self.digits and self.digits[-1][0] + 1 == self.digits[-1][1]:
            self.digits.pop()
        if not self.digits:
            return False
        self.digits[-1][0] += 1
        self.depth = 0
        return True


def exact_acceptance(attack) -> Fraction:
    """The probability that ``attack`` is accepted over the verifier's
    draws; an abort counts as a loss.  The prover is built for trial 0,
    so an attack with coins of its own is measured on those of trial 0."""
    source, accepted = OdometerChallenges(), Fraction(0)
    while True:
        try:
            res = runner(attack.protocol)(attack.matrices, source, attack.prover(0))
        except ProtocolAbort:
            pass
        else:
            if res.verdict.accepted:
                accepted += source.weight()
        if not source.advance():
            return accepted


def _ceiling(name: str, p: int) -> Fraction:
    s = Fraction(1, p)
    return {
        "grp": s + s * s,
        "det": 1 - (1 - s) ** 3,
        "ldup": 2 * s,
    }.get(name, s)


# crp and ldup are left out at p = 5: about 10^6 leaves, tens of seconds
EXACT = {
    (3, "freivalds"): Fraction(1, 3),
    (5, "freivalds"): Fraction(1, 5),
    (3, "tri-equiv"): Fraction(1, 3),
    (5, "tri-equiv"): Fraction(1, 5),
    (3, "crp"): Fraction(1, 3),
    (3, "grp"): Fraction(11, 27),
    (5, "grp"): Fraction(29, 125),
    (3, "det"): Fraction(19, 27),
    (5, "det"): Fraction(61, 125),
    (3, "ldup"): Fraction(11, 81),
}


def test_the_table_covers_every_shipped_attack_at_p_3():
    assert {name for p, name in EXACT if p == 3} == set(ATTACKS)


@pytest.mark.parametrize("p, name", sorted(EXACT))
def test_a_shipped_attack_wins_exactly_its_pinned_rate(p, name):
    rate = exact_acceptance(ATTACKS[name](PrimeField(p), 20260815))
    assert rate == EXACT[p, name]
    assert rate <= _ceiling(name, p)
