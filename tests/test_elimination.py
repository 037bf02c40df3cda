import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankcert import elimination
from rankcert.adversaries import ShiftedProfileAttack
from rankcert.bruteforce import (
    has_grp,
    oracle_crp,
    oracle_det,
    oracle_rank,
    oracle_rpm,
)
from rankcert.elimination import (
    InconsistentSystemError,
    SingularPivotError,
    cut_to_counts,
    ldup,
    lu_nopivot,
    pluq_crp,
    pluq_rpm,
    random_grp_matrix,
    random_nonsingular,
    random_rank_deficient,
    random_unit_lower,
    random_unit_upper,
    solve_consistent,
    solve_leading_pivots,
    trsv_lower,
    trsv_upper,
)
from rankcert.field import PrimeField
from rankcert.matrix import DenseMatrix, matmul_mod
from rankcert.protocols.base import WitnessUnavailable
from rankcert.protocols.equivalence import TriangularEquivalenceProver
from rankcert.protocols.profiles import CrpStreamProver
from reference_elimination import right_looking_pluq_rpm
from streams import (
    assert_streams_gamma,
    assert_streams_witness,
    gamma_by_definition,
    prefix_rhs,
    tri_witness,
)
from shapes import (
    echelon_form,
    is_lower_triangular,
    is_row_echelon,
    is_unit_lower_leading,
    is_upper_triangular,
    left_conjugate,
    reveals_rank_profile_matrix,
    right_conjugate,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def mat(rows, field=F7):
    return DenseMatrix.from_rows(field, rows)


def random_cases(field, count, seed, mmax=6, nmax=6):
    rng = random.Random(seed)
    for _ in range(count):
        yield DenseMatrix.random(field, rng.randrange(1, mmax), rng.randrange(1, nmax), rng)


# PLUQ with column-profile pivoting ------------------------------------------


def test_pluq_crp_factor_shapes_and_structure():
    a = mat([[0, 0, 1, 2], [0, 0, 2, 4], [0, 3, 0, 1]])
    f = pluq_crp(a)
    assert f.r == 2
    assert f.lower.shape == (3, 2) and f.upper.shape == (2, 4)
    assert is_unit_lower_leading(f.lower, f.r)
    assert is_upper_triangular(DenseMatrix(F7, f.upper.array[:, : f.r].copy()))
    assert f.reconstruct() == a
    assert f.pivot_cols() == (1, 2)
    assert is_row_echelon(echelon_form(f))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pluq_crp_matches_oracles(seed):
    rng = random.Random(seed)
    field = PrimeField(rng.choice([2, 3, 5, 7]))
    a = DenseMatrix.random(field, rng.randrange(1, 6), rng.randrange(1, 6), rng)
    f = pluq_crp(a)
    assert f.reconstruct() == a
    assert f.r == oracle_rank(a)
    assert f.pivot_cols() == oracle_crp(a)
    assert is_row_echelon(echelon_form(f))
    assert is_unit_lower_leading(f.lower, f.r)


# PLUQ with rotations ----------------------------------------------------------


def test_pluq_rpm_exhaustive_small_fields():
    for p in (2, 3):
        field = PrimeField(p)
        for entries in itertools.product(range(p), repeat=9):
            a = DenseMatrix(field, np.array(entries, dtype=np.int64).reshape(3, 3))
            f = pluq_rpm(a)
            assert f.reconstruct() == a
            assert f.rank_profile_matrix() == oracle_rpm(a)
            assert reveals_rank_profile_matrix(f)


def test_pluq_rpm_conjugates_stay_triangular_randomly():
    for a in random_cases(F7, 150, seed=21):
        f = pluq_rpm(a)
        assert f.reconstruct() == a
        assert is_lower_triangular(left_conjugate(f))
        assert is_upper_triangular(right_conjugate(f))
        assert f.rank_profile_matrix() == oracle_rpm(a)


EQUIVALENCE_MODULI = (7, 101, 131071, 67108859, 2**31 - 1)


def _rpm_inputs(field, rows_cap, count, rng):
    """Wide and tall inputs with at most rows_cap rows: full-rank,
    rank-deficient, with zero rows, and zero."""
    for _ in range(count):
        m, n = rng.randint(1, rows_cap), rng.randint(1, rows_cap + 4)
        kind = rng.randrange(8)
        if kind == 0:
            yield DenseMatrix.zeros(field, m, n)
            continue
        if kind < 4:
            a = DenseMatrix.random(field, m, n, rng)
        else:
            a = random_rank_deficient(field, m, n, rng.randint(0, min(m, n)), rng)
        if kind % 2:
            arr = a.array.copy()
            arr[rng.sample(range(m), rng.randint(1, m))] = 0
            a = DenseMatrix(field, arr)
        yield a


def _assert_same_factorization(got, want):
    assert (got.m, got.n, got.r) == (want.m, want.n, want.r)
    assert got.row_perm == want.row_perm
    assert got.col_perm == want.col_perm
    assert got.lower == want.lower
    assert got.upper == want.upper


# _room is 3 at the first and 2 at the second: one update more than it
# allows would leave int64 there
EDGE_MODULI = (1753413037, 1753413059)
REAL_ROOM = elimination._room
# None keeps the real _room; the others cap it, so updates pile up and are
# flushed every few rows at every modulus (a cap never raises it)
ROOM_CAPS = (None, 1, 2, 3)


def _cap_room(monkeypatch, cap):
    room = REAL_ROOM if cap is None else (lambda p: min(cap, REAL_ROOM(p)))
    monkeypatch.setattr(elimination, "_room", room)


def _worst_case(field, n):
    """An n x 2n matrix A = L . U with every off-diagonal entry of L equal
    to p - 1 and U in reduced form: row k holds 1 at its pivot column, p - 1
    right of it outside the earlier pivot columns and 0 elsewhere.  Each
    rank-1 update subtracts exactly (p - 1)^2.  The pivot columns alternate
    between 0, 1, 2, ... and n, n + 1, ..., so the columns between take
    an update from every other pivot and none from the rest."""
    p = field.p
    low = np.tril(np.full((n, n), p - 1, dtype=np.int64), -1) + np.eye(n, dtype=np.int64)
    up = np.zeros((n, 2 * n), dtype=np.int64)
    taken = []
    for k in range(n):
        j = k // 2 if k % 2 == 0 else n + k // 2
        up[k, j + 1 :] = p - 1
        up[k, taken] = 0
        up[k, j] = 1
        taken.append(j)
    return DenseMatrix(field, matmul_mod(low, up, p))


def test_room_is_the_most_updates_int64_holds_past_the_drift_margin():
    for p in (2, 7, 131071, 67108859, *EDGE_MODULI, 2**31 - 1):
        room, drift = elimination._room(p), 64 * p
        assert room >= 1
        assert room * (p - 1) ** 2 + drift <= 2**63
        assert (room + 1) * (p - 1) ** 2 + drift > 2**63
    assert [elimination._room(p) for p in (*EDGE_MODULI, 2**31 - 1)] == [3, 2, 1]


@pytest.mark.parametrize("p", EQUIVALENCE_MODULI + EDGE_MODULI)
def test_recursive_pluq_rpm_equals_the_right_looking_reference(p, monkeypatch):
    """237 inputs per modulus: 56 random ones and the worst case for each
    of the base sizes 1, 2, 3 and 5 with up to 3 x base + 1 rows, so the
    recursion runs several levels deep, and 8 and the worst case at the
    real base size with up to 3 x base rows; each with every room cap."""
    field = PrimeField(p)
    rng = random.Random(p)
    real_base = elimination._BASE_ROWS

    def compare(inputs):
        for a in inputs:
            want = right_looking_pluq_rpm(a)
            for cap in ROOM_CAPS:
                _cap_room(monkeypatch, cap)
                _assert_same_factorization(pluq_rpm(a), want)

    for base in (1, 2, 3, 5):
        monkeypatch.setattr(elimination, "_BASE_ROWS", base)
        compare([*_rpm_inputs(field, 3 * base + 1, 56, rng), _worst_case(field, 3 * base + 1)])
    monkeypatch.setattr(elimination, "_BASE_ROWS", real_base)
    compare([*_rpm_inputs(field, 3 * real_base, 8, rng), _worst_case(field, 3 * real_base)])


def _lowered_base_inputs(p, monkeypatch):
    """Wide, tall and zero-row inputs with _BASE_ROWS and _TRSM_BASE at 1
    and 3, so both recursions run, 40 per base size, the room caps taken in
    turn."""
    field = PrimeField(p)
    rng = random.Random(p + 1)
    for base in (1, 3):
        monkeypatch.setattr(elimination, "_BASE_ROWS", base)
        monkeypatch.setattr(elimination, "_TRSM_BASE", base)
        for k, a in enumerate(_rpm_inputs(field, 3 * base + 1, 40, rng)):
            _cap_room(monkeypatch, ROOM_CAPS[k % len(ROOM_CAPS)])
            yield a, rng


def _outcome(fact, rhs, count):
    try:
        return solve_leading_pivots(fact, rhs, count)
    except InconsistentSystemError:
        return None


@pytest.mark.parametrize("p", EQUIVALENCE_MODULI)
def test_leading_pivot_solves_agree_on_both_factorizations(p, monkeypatch):
    """Counted in column order, the leading pivots of `pluq_rpm` are those
    of `pluq_crp`: the same X for every count, and no solution on the
    same systems, those that need a pivot past the count.  The crp
    stream on either streams the gamma of those solves, one per count."""
    for a, rng in _lowered_base_inputs(p, monkeypatch):
        crp, rpm = pluq_crp(a), pluq_rpm(a)
        cols, r = crp.pivot_cols(), crp.r
        counts = [rng.randint(0, r) for _ in range(3)]
        coeffs = np.zeros((a.n, 3), dtype=np.int64)
        for j, k in enumerate(counts):
            coeffs[list(cols[:k]), j] = [rng.randrange(p) for _ in range(k)]
        rhs = matmul_mod(a.array, coeffs, p)
        x = solve_leading_pivots(rpm, rhs, counts)
        assert np.array_equal(x, coeffs)
        assert np.array_equal(x, solve_leading_pivots(crp, rhs, counts))
        noise = np.array([rng.randrange(p) for _ in range(a.m)], dtype=np.int64)
        for b in (*rhs.T, noise):
            for k in range(r + 1):
                want = _outcome(crp, b, k)
                got = _outcome(rpm, b, k)
                assert (got is None) == (want is None)
                assert want is None or np.array_equal(got, want)
        v = np.array([rng.randrange(1, p) for _ in range(a.n)], dtype=np.int64)
        gamma = gamma_by_definition(a, cols, crp, v)
        for fact in (crp, rpm):
            assert_streams_gamma(CrpStreamProver(a, cols, fact=fact), gamma, v, rng)


@pytest.mark.parametrize("p", EQUIVALENCE_MODULI)
def test_transposed_factorization_serves_the_row_profile(p, monkeypatch):
    """The factorization of A^T read off `pluq_rpm(A)` reconstructs A^T,
    and the crp stream on it streams the gamma that `pluq_crp(A^T)` gives,
    as the stream on `pluq_crp(A^T)` does."""
    for a, rng in _lowered_base_inputs(p, monkeypatch):
        fact = pluq_rpm(a)
        t, at = fact.transpose(), a.transpose()
        assert (t.m, t.n, t.r) == (a.n, a.m, fact.r)
        assert t.reconstruct() == at
        assert is_unit_lower_leading(t.lower, t.r)
        rows = fact.pivot_rows()
        v = np.array([rng.randrange(1, p) for _ in range(a.m)], dtype=np.int64)
        crp = pluq_crp(at)
        gamma = gamma_by_definition(at, rows, crp, v)
        for f in (crp, t):
            assert_streams_gamma(CrpStreamProver(at, rows, fact=f), gamma, v, rng)


def _assert_gamma_by_definition(a, cols, fact, v, rng):
    want = gamma_by_definition(a, cols, fact, v)
    assert_streams_gamma(CrpStreamProver(a, cols, fact=fact), want, v, rng)


@pytest.mark.parametrize("p", EQUIVALENCE_MODULI)
def test_gamma_equals_the_two_solves_of_its_definition(p, monkeypatch):
    """The stream prover, on a factorization of its matrix (`pluq_rpm`
    and `pluq_crp` of A; `pluq_rpm(A^T)` and `pluq_rpm(A)` transposed for
    A^T) or on its own `pluq_leading` of A when it has none, answers each
    round with gamma's row times x, for the gamma of the forward and back
    solve of `solve_pivot_block` on the prefix sums of A[rows] . diag(v),
    the latter factoring A[:, cols].  Then shifted profile claims, where
    the cut to the counts zeroes entries of the forward solve."""
    field = PrimeField(p)
    for a, rng in _lowered_base_inputs(p, monkeypatch):
        v = np.array([rng.randrange(1, p) for _ in range(a.n)], dtype=np.int64)
        rpm = pluq_rpm(a)
        cols = tuple(sorted(rpm.pivot_cols()))
        for fact in (rpm, pluq_crp(a)):
            _assert_gamma_by_definition(a, cols, fact, v, rng)
        sub = pluq_rpm(a.submatrix(range(a.m), cols))
        want = gamma_by_definition(a, cols, sub, v)
        assert_streams_gamma(CrpStreamProver(a, cols), want, v, rng)
        at, rows = a.transpose(), rpm.pivot_rows()
        u = np.array([rng.randrange(1, p) for _ in range(a.m)], dtype=np.int64)
        _assert_gamma_by_definition(at, rows, pluq_rpm(at), u, rng)
        _assert_gamma_by_definition(at, rows, rpm.transpose(), u, rng)
    rng, cut = random.Random(p + 2), 0
    for _ in range(6):
        a = random_rank_deficient(field, 5, 8, 3, rng)
        attack = ShiftedProfileAttack(a)
        cols = attack.cols
        v = np.array([rng.randrange(1, p) for _ in range(a.n)], dtype=np.int64)
        sub = pluq_rpm(a.submatrix(range(a.m), cols))
        want = gamma_by_definition(a, cols, sub, v)
        assert_streams_gamma(CrpStreamProver(a, cols), want, v, rng)
        # as the attack streams it, on its own `pluq_leading`
        assert_streams_gamma(CrpStreamProver(a, cols, fact=attack.fact), want, v, rng)
        lead = DenseMatrix(field, sub.lower.array[: sub.r])
        t = trsv_lower(lead, prefix_rhs(a, cols, sub.pivot_rows(), v), unit=True)
        cut += np.any(cut_to_counts(sub, t, np.arange(1, sub.r + 1)) != t)
    assert cut > 0


def _streams_or_refuses(a, b, variant, rng):
    """The tri-equiv prover streams the witness by definition, or refuses
    exactly where that witness does not exist; whether it refused."""
    try:
        tri_witness(a, b, variant)
    except InconsistentSystemError:
        with pytest.raises(WitnessUnavailable):
            TriangularEquivalenceProver(a, b, variant)
        return True
    assert_streams_witness(TriangularEquivalenceProver(a, b, variant), a, b, variant, rng)
    return False


@pytest.mark.parametrize("variant", ["lower", "upper"])
@pytest.mark.parametrize("p", EQUIVALENCE_MODULI)
def test_tri_equiv_prover_streams_its_witness_by_definition(p, variant, monkeypatch):
    """Each response is the witness row times x, for the witness by
    definition: the identity plus `solve_leading_pivots` on one elimination
    of A.  On wide, tall, square, rank-deficient and zero inputs, B = A . T
    for a unit triangular T of the variant's side and of the other side;
    the latter is out of reach unless A's columns allow it, and then the
    prover refuses with WitnessUnavailable."""
    field = PrimeField(p)

    def both_sides(a, rng):
        refused = 0
        for side in ("lower", "upper"):
            t = random_unit_lower(field, a.n, rng)
            t = t if side == "lower" else t.transpose()
            refused += _streams_or_refuses(a, a @ t, variant, rng)
        return refused

    refused = sum(both_sides(a, rng) for a, rng in _lowered_base_inputs(p, monkeypatch))
    rng = random.Random(p + 3)
    for m, n, r in ((5, 8, 3), (8, 5, 5), (6, 6, 6), (6, 6, 4)):
        refused += both_sides(random_rank_deficient(field, m, n, r, rng), rng)
    assert refused > 0


def _assert_claim_factored_and_solved(a, cols, rng):
    """`pluq_leading` on a column claim: it factors A, its pivots among
    the claim are those of `pluq_rpm(A[:, cols])` in A's columns, and for
    v = A . alpha with alpha on the claim, the solve on all its pivots
    gives on the claim what `solve_consistent` gives on A[:, cols]."""
    fact = elimination.pluq_leading(a, cols)
    assert fact.reconstruct() == a
    sub = a.submatrix(range(a.m), cols)
    want = sorted(cols[k] for k in pluq_rpm(sub).pivot_cols())
    assert sorted(c for c in fact.pivot_cols() if c in cols) == want
    alpha = np.zeros(a.n, dtype=np.int64)
    alpha[list(cols)] = [rng.randrange(a.field.p) for _ in cols]
    v = a.matvec(alpha)
    got = solve_leading_pivots(fact, v, fact.r)[list(cols)]
    assert np.array_equal(got, solve_consistent(sub, v))


@pytest.mark.parametrize("p", EQUIVALENCE_MODULI)
def test_pluq_leading_serves_every_column_claim(p, monkeypatch):
    """The profile, a shifted profile claim where one exists, and a
    dependent pair: A widened by a multiple of its first column, with the
    two claimed.  The crp stream refuses the pair, whose columns are not
    the pivots of their factorization."""
    shifted = 0
    for a, rng in _lowered_base_inputs(p, monkeypatch):
        claims = [tuple(sorted(pluq_rpm(a).pivot_cols()))]
        try:
            claims.append(ShiftedProfileAttack(a).cols)
        except ValueError:
            pass
        shifted += len(claims) - 1
        for cols in claims:
            _assert_claim_factored_and_solved(a, cols, rng)
        k = rng.randrange(p)
        wide = DenseMatrix(a.field, np.hstack([a.array, a.array[:, :1] * k % p]))
        pair = (0, a.n)
        _assert_claim_factored_and_solved(wide, pair, rng)
        v = np.array([rng.randrange(1, p) for _ in range(wide.n)], dtype=np.int64)
        with pytest.raises(SingularPivotError):
            CrpStreamProver(wide, pair)._solve_gamma(v)
    assert shifted > 0


@pytest.mark.parametrize("p", EQUIVALENCE_MODULI)
def test_crossing_factorization_equals_its_own_pluq_rpm(p, monkeypatch):
    for a, _ in _lowered_base_inputs(p, monkeypatch):
        fact = pluq_rpm(a)
        if fact.r:
            crossing = a.submatrix(fact.pivot_rows(), sorted(fact.pivot_cols()))
            _assert_same_factorization(fact.crossing(), pluq_rpm(crossing))


def test_transposition_pluq_does_not_generally_reveal_the_profile():
    # the row-swapping variant keeps the column profile but can lose the
    # row half; this is why every prover factors with pluq_rpm
    a = mat([[0, 0, 1], [0, 0, 1], [0, 1, 0]])
    assert pluq_crp(a).pivot_cols() == oracle_crp(a)
    assert not reveals_rank_profile_matrix(pluq_crp(a))
    assert reveals_rank_profile_matrix(pluq_rpm(a))


def test_reveal_predicate_is_sound_for_both_variants():
    # whenever the conjugate test passes, the read-off positions are right
    f2 = PrimeField(2)
    for entries in itertools.product(range(2), repeat=9):
        a = DenseMatrix(f2, np.array(entries, dtype=np.int64).reshape(3, 3))
        for fact in (pluq_crp(a), pluq_rpm(a)):
            if reveals_rank_profile_matrix(fact):
                assert fact.rank_profile_matrix() == oracle_rpm(a)


# No-pivot LU and LDUP ---------------------------------------------------------


def test_lu_nopivot_requires_generic_profile():
    good = mat([[2, 4], [1, 3]])
    low, up = lu_nopivot(good)
    assert is_lower_triangular(low) and is_upper_triangular(up)
    assert low @ up == good
    with pytest.raises(SingularPivotError):
        lu_nopivot(mat([[0, 1], [1, 1]]))


def test_ldup_frozen_examples():
    swap = DenseMatrix.from_rows(F5, [[0, 1], [1, 0]])
    f = ldup(swap)
    assert f.perm.images == (1, 0)
    assert f.lower == DenseMatrix.identity(F5, 2)
    assert f.diag.entries == (1, 1)
    assert f.upper == DenseMatrix.identity(F5, 2)
    assert f.reconstruct() == swap
    assert f.determinant() == 4

    a = DenseMatrix.from_rows(F5, [[1, 1], [1, 0]])
    f2 = ldup(a)
    assert f2.perm.images == (0, 1)
    assert f2.diag.entries == (1, 4)
    assert f2.lower.array.tolist() == [[1, 0], [1, 1]]
    assert f2.upper.array.tolist() == [[1, 1], [0, 1]]
    assert f2.reconstruct() == a


def test_ldup_rejects_singular_and_nonsquare():
    with pytest.raises(SingularPivotError):
        ldup(mat([[1, 2], [2, 4]]))
    with pytest.raises(Exception):
        ldup(DenseMatrix.zeros(F7, 2, 3))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_ldup_structure_and_determinant(n, seed):
    rng = random.Random(seed)
    field = PrimeField(rng.choice([3, 5, 7, 131071]))
    a = random_nonsingular(field, n, rng)
    f = ldup(a)
    assert f.reconstruct() == a
    assert is_lower_triangular(f.lower)
    assert is_upper_triangular(f.upper)
    assert all(f.lower.array[i, i] == 1 for i in range(n))
    assert all(f.upper.array[i, i] == 1 for i in range(n))
    # pushing the permutation back into the matrix leaves a generic profile
    assert has_grp(f.perm.inverse().permute_cols(a)) or n > 5
    if n <= 4:
        assert f.determinant() == oracle_det(a)


# Solves ------------------------------------------------------------------------


def test_triangular_solves():
    rng = random.Random(2)
    low = random_unit_lower(F7, 5, rng)
    up = random_unit_upper(F7, 5, rng)
    b = np.array([rng.randrange(7) for _ in range(5)], dtype=np.int64)
    x = trsv_lower(low, b, unit=True)
    assert np.array_equal(low.matvec(x), b)
    y = trsv_upper(up, b, unit=True)
    assert np.array_equal(up.matvec(y), b)
    scaled = DenseMatrix(F7, (low.array * 3) % 7)
    with_diag = trsv_lower(DenseMatrix(F7, np.tril((scaled.array + np.eye(5, dtype=np.int64)) % 7)), b)
    # just shape and consistency; value checked through matvec below
    assert with_diag.shape == (5,)


def test_solve_consistent_solves_every_consistent_system():
    rng = random.Random(17)
    for _ in range(80):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        r = rng.randrange(0, min(m, n) + 1)
        a = random_rank_deficient(F7, m, n, r, rng)
        xs = np.array([rng.randrange(7) for _ in range(n)], dtype=np.int64)
        rhs = a.matvec(xs)
        x = solve_consistent(a, rhs)
        assert np.array_equal(a.matvec(x), rhs)


def test_solve_consistent_detects_inconsistency():
    a = mat([[1, 2], [2, 4]])
    with pytest.raises(InconsistentSystemError):
        solve_consistent(a, np.array([1, 3], dtype=np.int64))
    z = DenseMatrix.zeros(F7, 2, 2)
    with pytest.raises(InconsistentSystemError):
        solve_consistent(z, np.array([0, 1], dtype=np.int64))


def test_solve_leading_pivots_recovers_support_values():
    rng = random.Random(23)
    a = random_rank_deficient(F7, 5, 6, 3, rng)
    cols = oracle_crp(a)
    coeffs = np.array([1, 2, 3], dtype=np.int64)
    rhs = a.submatrix(tuple(range(5)), cols).matvec(coeffs)
    x = solve_leading_pivots(pluq_crp(a), rhs, len(cols))
    assert np.array_equal(x[list(cols)], coeffs)
    assert not np.delete(x, list(cols)).any()


# Generators --------------------------------------------------------------------


def test_generators_have_advertised_properties():
    rng = random.Random(31)
    for n in (1, 2, 5):
        assert pluq_rpm(random_nonsingular(F7, n, rng)).r == n
        assert has_grp(random_grp_matrix(F7, n, rng))
        low = random_unit_lower(F7, n, rng)
        assert is_lower_triangular(low) and all(low.array[i, i] == 1 for i in range(n))
    for r in (0, 1, 3):
        assert pluq_rpm(random_rank_deficient(F7, 4, 5, r, rng)).r == r
    with pytest.raises(ValueError):
        random_rank_deficient(F7, 2, 2, 3, rng)


# Exactness at the top of the field range --------------------------------------

# the kernel splits an operand into limbs at 2**31 - 1 past 2 terms, and at
# 67108859, the largest prime below 2**26, past 1 term in matrix products
BIG_MODULI = (2**31 - 1, 67108859)


def _python_product(a, x, p):
    """a @ x mod p in Python integers."""
    return (a.astype(object) @ x.astype(object)) % p


def _assert_solves(f, low, rhs, unit):
    """Both triangular solves of ``rhs`` against ``low`` and its transpose."""
    p = f.p
    x = trsv_lower(DenseMatrix(f, low), rhs, unit=unit)
    assert np.array_equal(_python_product(low, x, p), rhs)
    up = low.T.copy()
    y = trsv_upper(DenseMatrix(f, up), rhs, unit=unit)
    assert np.array_equal(_python_product(up, y, p), rhs)
    # one column at a time gives the same columns
    assert np.array_equal(trsv_lower(DenseMatrix(f, low), rhs[:, 1], unit=unit), x[:, 1])


def _triangular_cases(p, n, rng):
    strict = np.tril(rng.integers(0, p, size=(n, n), dtype=np.int64), -1)
    strict[::2] = np.tril(np.full((n, n), p - 1, dtype=np.int64), -1)[::2]
    diag = np.diag(rng.integers(1, p, size=n, dtype=np.int64))
    rhs = rng.integers(0, p, size=(n, 3), dtype=np.int64)
    return ((strict + np.eye(n, dtype=np.int64), True), (strict + diag, False)), rhs


@pytest.mark.parametrize("p", BIG_MODULI + EDGE_MODULI)
def test_block_triangular_solves_match_python_integers(p, monkeypatch):
    f = PrimeField(p)
    rng = np.random.default_rng(5)
    # order 9 is solved by substitution alone; at 2052 the recursion's
    # off-diagonal products go through the limbs
    n = 2052 if p == 67108859 else 9
    cases, rhs = _triangular_cases(p, n, rng)
    for low, unit in cases:
        _assert_solves(f, low, rhs, unit)
    # at order 40 with _TRSM_BASE lowered the recursion runs several levels
    # deep, under every room cap; in the worst case, unit triangles whose
    # every entry below (above) the diagonal is p - 1 and a solution of
    # all p - 1, each update subtracts exactly (p - 1)^2
    cases, rhs = _triangular_cases(p, 40, rng)
    worst = np.tril(np.full((40, 40), p - 1, dtype=np.int64), -1) + np.eye(40, dtype=np.int64)
    sol = np.full((40, 3), p - 1, dtype=np.int64)
    for base, cap in itertools.product((1, 3, elimination._TRSM_BASE), ROOM_CAPS):
        monkeypatch.setattr(elimination, "_TRSM_BASE", base)
        _cap_room(monkeypatch, cap)
        for low, unit in cases:
            _assert_solves(f, low, rhs, unit)
        for t, solve in ((worst, trsv_lower), (worst.T.copy(), trsv_upper)):
            b = _python_product(t, sol, p).astype(np.int64)
            assert np.array_equal(solve(DenseMatrix(f, t), b, unit=True), sol)
    # the loop ends at the real _TRSM_BASE
    _assert_one_column_worst_case(p, monkeypatch)


def _assert_one_column_worst_case(p, monkeypatch):
    """A single right-hand side at orders around the substitution leaf's,
    under every room cap: triangles whose every off-diagonal entry is
    p - 1, with a diagonal of ones (unit) or of p - 1, and a solution of
    all p - 1.  The right-hand side comes reduced, and unreduced as
    `_eliminate_rows` may pass it in, its entries 63p lower."""
    base = elimination._TRSM_BASE
    for n, cap in itertools.product((1, base, base + 1, 2 * base + 1), ROOM_CAPS):
        _cap_room(monkeypatch, cap)
        sol = np.full((n, 1), p - 1, dtype=np.int64)
        for diag, unit in ((1, True), (p - 1, False)):
            worst = np.tril(np.full((n, n), p - 1, dtype=np.int64), -1) + diag * np.eye(
                n, dtype=np.int64
            )
            for t, lower in ((worst, True), (worst.T.copy(), False)):
                b = _python_product(t, sol, p).astype(np.int64)
                for rhs in (b, b - 63 * p):
                    x = elimination._trsm(t, rhs.copy(), p, lower=lower, unit=unit)
                    assert np.array_equal(x, sol), (n, cap, unit, lower)


@pytest.mark.parametrize("p", BIG_MODULI)
def test_solve_leading_pivots_matches_python_integers(p):
    f = PrimeField(p)
    rng = random.Random(p)
    a = random_rank_deficient(f, 9, 11, 6, rng)
    fact = pluq_crp(a)
    cols = fact.pivot_cols()
    counts = [0, 1, 3, 6, 6, 2]
    coeffs = np.zeros((a.n, len(counts)), dtype=np.int64)
    for j, k in enumerate(counts):
        for c in cols[:k]:
            coeffs[c, j] = rng.choice([rng.randrange(p), p - 1])
    rhs = _python_product(a.array, coeffs, p).astype(np.int64)
    x = solve_leading_pivots(fact, rhs, counts)
    # the leading pivot columns are independent, so the coefficients come back
    assert np.array_equal(x, coeffs)
    assert np.array_equal(solve_leading_pivots(fact, rhs[:, 2], counts[2]), coeffs[:, 2])
    # a combination that needs a later pivot has no solution on fewer pivots
    with pytest.raises(InconsistentSystemError):
        solve_leading_pivots(fact, rhs[:, 3:4], [5])
