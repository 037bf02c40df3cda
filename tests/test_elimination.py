import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankcert import elimination
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
    determinant,
    ldup,
    lu_nopivot,
    pluq_crp,
    pluq_rpm,
    random_grp_matrix,
    random_nonsingular,
    random_rank_deficient,
    random_unit_lower,
    random_unit_upper,
    rank,
    solve_consistent,
    solve_leading_pivots,
    trsv_lower,
    trsv_upper,
)
from rankcert.field import PrimeField
from rankcert.matrix import DenseMatrix
from reference_elimination import right_looking_pluq_rpm
from shapes import (
    echelon_form,
    is_lower_triangular,
    is_row_echelon,
    is_unit_lower_leading,
    is_upper_triangular,
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
        assert is_lower_triangular(f.left_conjugate())
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


@pytest.mark.parametrize("p", EQUIVALENCE_MODULI)
def test_recursive_pluq_rpm_equals_the_right_looking_reference(p, monkeypatch):
    """232 inputs per modulus: 56 for each of the base sizes 1, 2, 3 and 5
    with up to 3 x base + 1 rows, so the recursion runs several levels
    deep, and 8 at the real base size with up to 3 x base rows."""
    field = PrimeField(p)
    rng = random.Random(p)
    real_base = elimination._BASE_ROWS
    for base in (1, 2, 3, 5):
        monkeypatch.setattr(elimination, "_BASE_ROWS", base)
        for a in _rpm_inputs(field, 3 * base + 1, 56, rng):
            _assert_same_factorization(pluq_rpm(a), right_looking_pluq_rpm(a))
    monkeypatch.setattr(elimination, "_BASE_ROWS", real_base)
    for a in _rpm_inputs(field, 3 * real_base, 8, rng):
        _assert_same_factorization(pluq_rpm(a), right_looking_pluq_rpm(a))


def test_transposition_pluq_does_not_generally_reveal_the_profile():
    # the row-swapping variant keeps the column profile but can lose the
    # row half; this pins the reason two eliminations exist
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
    assert f.determinant() == determinant(a)


def test_elimination_determinant_matches_oracle_including_singular():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randrange(1, 5)
        a = DenseMatrix.random(F7, n, n, rng)
        assert determinant(a) == oracle_det(a)


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
        assert rank(random_nonsingular(F7, n, rng)) == n
        assert has_grp(random_grp_matrix(F7, n, rng))
        low = random_unit_lower(F7, n, rng)
        assert is_lower_triangular(low) and all(low.array[i, i] == 1 for i in range(n))
    for r in (0, 1, 3):
        assert rank(random_rank_deficient(F7, 4, 5, r, rng)) == r
    with pytest.raises(ValueError):
        random_rank_deficient(F7, 2, 2, 3, rng)


# Exactness at the top of the field range --------------------------------------

# the kernel splits an operand into limbs at 2**31 - 1 past 2 terms, and at
# 67108859, the largest prime below 2**26, past 1 term in matrix products
BIG_MODULI = (2**31 - 1, 67108859)


def _python_product(a, x, p):
    """a @ x mod p in Python integers."""
    return (a.astype(object) @ x.astype(object)) % p


@pytest.mark.parametrize("p", BIG_MODULI)
def test_block_triangular_solves_match_python_integers(p):
    f = PrimeField(p)
    rng = np.random.default_rng(5)
    # order 9 is solved by substitution alone; at 2052 the recursion's
    # off-diagonal products go through the limbs
    n = 9 if p == 2**31 - 1 else 2052
    strict = np.tril(rng.integers(0, p, size=(n, n), dtype=np.int64), -1)
    strict[::2] = np.tril(np.full((n, n), p - 1, dtype=np.int64), -1)[::2]
    diag = np.diag(rng.integers(1, p, size=n, dtype=np.int64))
    rhs = rng.integers(0, p, size=(n, 3), dtype=np.int64)
    for low, unit in ((strict + np.eye(n, dtype=np.int64), True), (strict + diag, False)):
        x = trsv_lower(DenseMatrix(f, low), rhs, unit=unit)
        assert np.array_equal(_python_product(low, x, p), rhs)
        up = low.T.copy()
        y = trsv_upper(DenseMatrix(f, up), rhs, unit=unit)
        assert np.array_equal(_python_product(up, y, p), rhs)
        # one column at a time gives the same columns
        assert np.array_equal(trsv_lower(DenseMatrix(f, low), rhs[:, 1], unit=unit), x[:, 1])


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
