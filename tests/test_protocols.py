"""Per-protocol behavior: completeness, rejection paths and the exact
communication the designs promise."""

import random

import numpy as np
import pytest

from rankcert.adversaries import (
    GhostWitnessProver,
    ShiftedProfileAttack,
    forged_product,
    full_witness,
    scaled_diagonal_factors,
)
from rankcert.bruteforce import oracle_crp, oracle_det, oracle_rank, oracle_rpm, oracle_rrp
from rankcert.elimination import (
    LdupFactorization,
    pluq_leading,
    pluq_rpm,
    random_grp_matrix,
    random_nonsingular,
    random_rank_deficient,
    random_unit_lower,
)
from rankcert.field import PrimeField, SampleSet
from rankcert.matrix import DenseMatrix, Diagonal, Permutation, dot_mod
from rankcert.protocols.base import (
    Channel,
    CostMeter,
    FiatShamirChallenges,
    InteractiveChallenges,
    Message,
    PROVER,
    ProtocolOrderError,
    ProverMachine,
    Verdict,
    WitnessUnavailable,
    field_part,
    perm_part,
)
from rankcert.protocols.equivalence import find_unit_triangular_witness
from rankcert.protocols.grp import GrpProver
from rankcert.protocols.ldup import LdupProver, ldup_rounds
from rankcert.protocols.profiles import RpmInvertibleProver
from rankcert.protocols.rank import RankLowerProver, RankLowerVerifier, RankUpperProver
from rankcert.protocols.wire import build_header, runner, seal

F = PrimeField(131071)
RNG_SEED = 20260815


def rng():
    return random.Random(RNG_SEED)


def challenges(seed=1):
    return InteractiveChallenges(seed)


def run(protocol, *mats, prover=None):
    """One interactive run at challenge seed 1; the honest prover when
    ``prover`` is None."""
    return runner(protocol)(mats, challenges(), prover)


# Freivalds -----------------------------------------------------------------------


def test_freivalds_accepts_true_products():
    r = rng()
    a = random_nonsingular(F, 4, r)
    b = DenseMatrix.random(F, 4, 3, r)
    res = run("freivalds", a, b, a @ b)
    assert res.verdict.accepted and res.value is True
    assert res.meter.communication_total == 0
    assert res.meter.verifier_matvecs == 3


def test_freivalds_rejects_a_forgery():
    r = rng()
    a = random_nonsingular(F, 4, r)
    b = random_nonsingular(F, 4, r)
    res = run("freivalds", a, b, forged_product(a, b))
    assert not res.verdict.accepted
    assert res.verdict.reason == "product-mismatch"


# Rank upper ----------------------------------------------------------------------


def test_rank_upper_accepts_the_true_rank():
    a = random_rank_deficient(F, 7, 5, 3, rng())
    res = run("rank-upper", a)
    assert res.verdict.accepted and res.value == 3
    assert res.meter.verifier_matvecs == 2
    # claim + image + witness
    assert res.meter.integers_total == 1
    assert res.meter.field_elems_total == a.m + a.n


def test_rank_upper_undershooting_claim_fails_the_weight_gate():
    a = random_rank_deficient(F, 6, 6, 4, rng())
    res = run("rank-upper", a, prover=RankUpperProver(a, 3))
    assert not res.verdict.accepted
    assert res.verdict.reason == "hamming-weight"


def test_rank_upper_claim_above_dimensions_is_rejected():
    a = DenseMatrix.random(F, 3, 4, rng())
    res = run("rank-upper", a, prover=RankUpperProver(a, 5))
    assert not res.verdict.accepted
    assert res.verdict.reason == "bad-rank-claim"


def test_rank_upper_overshooting_claim_still_accepts():
    # an upper bound is allowed to be loose
    a = random_rank_deficient(F, 5, 5, 2, rng())
    res = run("rank-upper", a, prover=RankUpperProver(a, 4))
    assert res.verdict.accepted and res.value == 4


# Rank lower ----------------------------------------------------------------------


def test_rank_lower_accepts_independent_columns():
    a = random_rank_deficient(F, 7, 6, 4, rng())
    res = run("rank-lower", a)
    assert res.verdict.accepted
    assert len(res.value) == 4
    assert res.meter.verifier_matvecs == 1
    assert res.meter.integers_total == 4
    assert res.meter.field_elems_total == a.m + 4


def test_rank_lower_rejects_dependent_columns():
    f = F
    col = tuple(random.Random(5).randrange(1, f.p) for _ in range(5))
    arr = np.array([[c, (2 * c) % f.p, 0] for c in col], dtype=np.int64)
    a = DenseMatrix(f, arr)
    res = run("rank-lower", a, prover=RankLowerProver(a, (0, 1)))
    assert not res.verdict.accepted
    assert res.verdict.reason == "alpha-mismatch"


def test_rank_lower_rejects_malformed_claims():
    a = DenseMatrix.random(F, 4, 4, rng())
    for bad in ((2, 1), (0, 0), (0, 7)):
        res = run("rank-lower", a, prover=RankLowerProver(a, bad))
        assert not res.verdict.accepted
        assert res.verdict.reason == "bad-indices"


def test_rank_lower_aborts_a_combination_delivered_out_of_turn():
    """Stepped one message at a time: the claim, then the combination.
    Once the prover has queued its coefficients, the combination delivered
    again aborts before any verdict."""
    a = random_rank_deficient(F, 7, 6, 4, rng())
    meter = CostMeter()
    channel = Channel(meter, challenges())
    prover = RankLowerProver(a)
    verifier = RankLowerVerifier(a, SampleSet(F), meter, channel.challenges)
    claim = prover.next_message()
    assert claim.kind == "col-claim" and prover.next_message() is None
    channel.deliver(claim, verifier)
    combination = verifier.next_message()
    assert combination.kind == "rank-lower-combination" and verifier.next_message() is None
    channel.deliver(combination, prover)
    assert [m.kind for m in prover._outbox] == ["rank-lower-coefficients"]
    with pytest.raises(ProtocolOrderError):
        channel.deliver(combination, prover)
    assert verifier.verdict is None


# Triangular equivalence -----------------------------------------------------------


@pytest.mark.parametrize("variant", ["lower", "upper"])
def test_tri_equiv_accepts_and_meters(variant):
    r = rng()
    n = 6
    a = random_nonsingular(F, n, r)
    t = random_unit_lower(F, n, r)
    if variant == "upper":
        t = t.transpose()
    b = a @ t
    res = run(f"tri-equiv-{variant}", a, b)
    assert res.verdict.accepted
    assert res.meter.field_elems_total == 2 * n
    assert res.meter.integers_total == 0
    assert res.meter.verifier_matvecs == 2


def test_tri_equiv_honest_prover_refuses_unreachable_pairs():
    r = rng()
    a = random_nonsingular(F, 3, r)
    m = np.eye(3, dtype=np.int64)
    m[0, 1] = 5  # entry above the diagonal: not unit lower reachable
    b = a @ DenseMatrix(F, m)
    with pytest.raises(WitnessUnavailable):
        find_unit_triangular_witness(a, b, "lower")
    with pytest.raises(WitnessUnavailable):
        run("tri-equiv-lower", a, b)


def test_tri_equiv_ghost_witness_is_caught_at_large_modulus():
    r = rng()
    a = random_nonsingular(F, 4, r)
    m = np.eye(4, dtype=np.int64)
    m[0, 2] = 9
    b = a @ DenseMatrix(F, m)
    prover = GhostWitnessProver(a, full_witness(a, b), random.Random(77), "lower")
    res = run("tri-equiv-lower", a, b, prover=prover)
    assert not res.verdict.accepted
    assert res.verdict.reason == "final-check"


# Generic rank profile --------------------------------------------------------------


def test_grp_accepts_and_meters_exactly():
    n = 6
    a = random_grp_matrix(F, n, rng())
    res = run("grp", a)
    assert res.verdict.accepted and res.value is True
    assert res.meter.field_elems_prover_to_verifier == 3 * n
    assert res.meter.field_elems_verifier_to_prover == 3 * n
    assert res.meter.verifier_matvecs == 1


def test_grp_prover_needs_the_witness():
    swap = DenseMatrix(F, np.array([[0, 1], [1, 0]], dtype=np.int64))
    with pytest.raises(WitnessUnavailable):
        GrpProver(swap)


def test_grp_forge_is_caught_at_large_modulus():
    # the honest prover on the factors of the pivoted elimination
    swap = DenseMatrix(F, np.array([[0, 1], [1, 0]], dtype=np.int64))
    f = pluq_rpm(swap)
    res = run("grp", swap, prover=GrpProver(swap, factors=(f.lower, f.upper)))
    assert not res.verdict.accepted
    assert res.verdict.reason == "final-check"


# LDUP -------------------------------------------------------------------------------


def test_ldup_accepts_and_reconstructs_the_commitment():
    n = 7
    a = random_nonsingular(F, n, rng())
    res = run("ldup", a)
    assert res.verdict.accepted
    perm, diag = res.value
    assert isinstance(perm, Permutation)
    assert all(0 < d < F.p for d in diag.entries)
    assert res.meter.field_elems_total == 7 * n - 6
    assert res.meter.integers_total == n
    assert res.meter.verifier_matvecs == 1


def test_ldup_rejects_scaled_diagonal_at_large_modulus():
    a = random_nonsingular(F, 5, rng())
    res = run("ldup", a, prover=LdupProver(a, fact=scaled_diagonal_factors(a, 2)))
    assert not res.verdict.accepted
    assert res.verdict.reason == "final-check"


# 268435399 is the largest prime below 2^28: a k-term int64 sum of products
# of residues is exact up to k = 128 and may overflow from k = 129 on.
P28 = 268435399


@pytest.mark.parametrize("protocol", ["grp", "ldup"])
def test_pair_answers_are_two_dot_products_on_both_sides_of_the_int64_bound(protocol):
    """At n = 160 a pair round answers a challenge suffix of 1 to 160
    entries, so both of ``dot_mod``'s block branches below 2^16 entries
    answer.  On factors and
    challenges of p - 1 and near it, where a 160-term int64 sum wraps, each
    answer is the two ``dot_mod`` calls of the row of U (unit U for ldup)
    with the two challenge rows.  On an honest input a seal writes what the
    engine sends."""
    assert 128 * (P28 - 1) ** 2 < 2**63 <= 129 * (P28 - 1) ** 2
    f, n, r = PrimeField(P28), 160, random.Random(160)
    full = np.full((n, n), P28 - 1, dtype=np.int64)
    low = DenseMatrix(f, np.tril(full, -1) + np.eye(n, dtype=np.int64))
    up = DenseMatrix(f, np.triu(full))
    if protocol == "grp":
        a = random_grp_matrix(f, n, r)
        prover, shift, upper = GrpProver(a, factors=(low, up)), 0, up.array
    else:
        a = random_nonsingular(f, n, r)
        fact = LdupFactorization(f, n, low, Diagonal(f, [P28 - 2] * n), up, Permutation.identity(n))
        prover, shift, upper = LdupProver(a, fact=fact), 1, fact.upper.array
    drawn, pairs = {}, 0
    for kind, i, width, _, _ in prover._rounds:
        values = tuple(P28 - 1 - r.randrange(1000) for _ in range(width))
        for k, v in enumerate(values):
            drawn.setdefault((kind, k), np.zeros(n, dtype=np.int64))[i] = v
        got = prover._respond_to(kind, i, values).values
        if width == 2:
            row = upper[i - shift, i:]
            assert got == tuple(dot_mod(f, row, drawn[kind, k][i:]) for k in range(2)), i
            pairs += 1
    assert pairs == n - shift
    header = build_header(protocol, (a,))
    engine = runner(protocol)((a,), FiatShamirChallenges(header), None)
    frames = [m.encode_payload() for m in engine.transcript if m.sender == PROVER]
    blob, sealed = seal(protocol, a)
    assert blob == header + b"".join(len(fr).to_bytes(4, "little") + fr for fr in frames)
    assert sealed.meter == engine.meter and sealed.value == engine.value


def test_ldup_singular_instance_has_no_witness():
    a = random_rank_deficient(F, 4, 4, 2, rng())
    with pytest.raises(WitnessUnavailable):
        run("ldup", a)


class _BadCommitProver(ProverMachine):
    def __init__(self, images, dvals, n):
        super().__init__()
        self._send("ldup-commit", None, perm_part(images), field_part(dvals))
        # answer every round with zeros to complete the shape
        phis, psis, lams = np.zeros((3, n), dtype=np.int64)
        self._answer(
            ldup_rounds(n),
            {"ldup-challenge-pair": (phis, psis), "ldup-weight": (lams,)},
            {"ldup-challenge-pair": lambda i: (0, 0), "ldup-weight": lambda i: (0,)},
        )


def test_ldup_commit_validation():
    a = random_nonsingular(F, 3, rng())
    res = run("ldup", a, prover=_BadCommitProver((0, 0, 2), (1, 1, 1), 3))
    assert res.verdict.reason == "not-a-permutation"
    res = run("ldup", a, prover=_BadCommitProver((0, 1, 2), (1, 0, 1), 3))
    assert res.verdict.reason == "d-not-invertible"


# Determinant ------------------------------------------------------------------------


def test_det_nonsingular_matches_oracle():
    f = PrimeField(7)
    a = DenseMatrix(f, np.array([[2, 4, 1], [1, 3, 5], [6, 0, 2]], dtype=np.int64))
    res = run("det", a)
    assert res.verdict.accepted
    assert res.value == oracle_det(a)
    assert res.meter.verifier_matvecs == 1


def test_det_singular_goes_through_the_rank_route():
    a = random_rank_deficient(F, 5, 5, 3, rng())
    res = run("det", a)
    assert res.verdict.accepted and res.value == 0
    assert res.meter.verifier_matvecs == 2


# Column/row rank profiles --------------------------------------------------------------


def test_crp_accepts_and_meters_exactly():
    a = random_rank_deficient(F, 6, 8, 4, rng())
    res = run("crp", a)
    assert res.verdict.accepted
    assert res.value == oracle_crp(a)
    r = len(res.value)
    assert res.meter.communication_total == a.m + a.n + 4 * r
    assert res.meter.verifier_matvecs == 2


def test_crp_zero_matrix_accepts_empty_profile():
    a = DenseMatrix(F, np.zeros((4, 3), dtype=np.int64))
    res = run("crp", a)
    assert res.verdict.accepted and res.value == ()
    assert res.meter.verifier_matvecs == 2


def test_crp_shifted_claim_is_caught_at_large_modulus():
    a = DenseMatrix(F, np.array([[1, 2, 0], [1, 2, 1]], dtype=np.int64))
    attack = ShiftedProfileAttack(a)
    res = run("crp", a, prover=attack.prover())
    assert not res.verdict.accepted
    assert res.verdict.reason == "final-check"


def test_rrp_matches_oracle():
    a = random_rank_deficient(F, 8, 6, 4, rng())
    res = run("rrp", a)
    assert res.verdict.accepted
    assert res.value == oracle_rrp(a)


def test_rpm_invertible_accepts_and_meters_exactly():
    n = 6
    a = random_nonsingular(F, n, rng())
    res = run("rpm-inv", a)
    assert res.verdict.accepted
    assert isinstance(res.value, Permutation)
    assert res.meter.communication_total == 10 * n - 6
    assert res.meter.verifier_matvecs == 1


def test_rpm_invertible_rejects_a_wrong_permutation():
    # commit to a doctored permutation but otherwise answer honestly
    a = random_nonsingular(F, 4, rng())

    class WrongPermProver(RpmInvertibleProver):
        def __init__(self, a):
            super().__init__(a)
            # rewrite the queued commitment in place
            commit = self._outbox[0]
            images = list(commit.parts[0].values)
            images[0], images[1] = images[1], images[0]
            self._outbox[0] = Message(
                PROVER, commit.kind, commit.index,
                (perm_part(images), commit.parts[1]),
            )

    res = run("rpm-inv", a, prover=WrongPermProver(a))
    assert not res.verdict.accepted
    assert res.verdict.reason == "final-check"


@pytest.mark.parametrize("seed", range(6))
def test_rpm_invertible_rejects_a_valid_ldup_on_another_permutation(seed):
    """A PLUQ with columns 1 and 0 moved first is a valid LDUP of A whose
    permutation is not the rank profile matrix: the factorization's own
    identity holds, and the profile check rejects, interactively and
    sealed."""
    a = random_nonsingular(F, 5, random.Random(seed))
    fact = pluq_leading(a, [1, 0, 2, 3, 4])
    assert fact.col_perm != pluq_rpm(a).col_perm
    res = run("rpm-inv", a, prover=RpmInvertibleProver(a, rpm=fact))
    assert res.verdict == Verdict(False, "profile-check")
    sealed = FiatShamirChallenges(build_header("rpm-inv", (a,)))
    sealed.sealed = []
    res = runner("rpm-inv")((a,), sealed, RpmInvertibleProver(a, rpm=fact))
    assert res.verdict == Verdict(False, "profile-check")


def test_rpm_matches_oracle_and_meters():
    a = random_rank_deficient(F, 7, 7, 4, rng())
    res = run("rpm", a)
    assert res.verdict.accepted
    assert res.value == oracle_rpm(a)
    n, r = 7, 4
    assert res.meter.communication_total == 3 * n + 17 * r - 6
    assert res.meter.verifier_matvecs == 4


def test_rpm_zero_matrix():
    a = DenseMatrix(F, np.zeros((5, 5), dtype=np.int64))
    res = run("rpm", a)
    assert res.verdict.accepted
    assert res.value.rank == 0 and res.value.positions == ()
    assert res.meter.verifier_matvecs == 3


def test_rpm_full_rank_rectangular():
    a = DenseMatrix.random(F, 3, 5, rng())
    res = run("rpm", a)
    assert res.verdict.accepted
    assert res.value == oracle_rpm(a)

