"""Frozen expectations for the brute-force reference computations.

These values were computed once by hand or by an independent route and
are pinned here; everything faster in the package is judged against
these functions, so they get their own belt and braces."""

import itertools
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from rankcert.bruteforce import (
    check_dodgson,
    has_grp,
    minor,
    oracle_crp,
    oracle_det,
    oracle_rank,
    oracle_rpm,
    oracle_rrp,
)
from rankcert.field import PrimeField
from rankcert.matrix import DenseMatrix
from shapes import column_support, row_support

F7 = PrimeField(7)


def mat(rows, field=F7):
    return DenseMatrix.from_rows(field, rows)


def test_determinant_frozen_values():
    assert oracle_det(mat([[4]])) == 4
    assert oracle_det(mat([[2, 4], [1, 3]])) == 2
    assert oracle_det(mat([[1, 2, 3], [4, 5, 6], [0, 1, 2]])) == 0
    big = PrimeField(131071)
    m3 = mat([[100003, 7, 9], [12, 130000, 5], [3, 1, 4]], big)
    assert oracle_det(m3) == 111310


def test_determinant_multiplicative_on_2x2():
    rng = random.Random(3)
    for _ in range(50):
        a = DenseMatrix.random(F7, 2, 2, rng)
        b = DenseMatrix.random(F7, 2, 2, rng)
        assert oracle_det(a @ b) == (oracle_det(a) * oracle_det(b)) % 7


def test_minor_and_empty_minor():
    m1 = mat([[1, 2, 3], [4, 5, 6], [0, 1, 2]])
    assert minor(m1, (0, 1), (1, 2)) == 4
    assert minor(m1, (), ()) == 1


def test_rank_and_profiles_frozen_values():
    m1 = mat([[1, 2, 3], [4, 5, 6], [0, 1, 2]])
    assert oracle_rank(m1) == 2
    assert oracle_crp(m1) == (0, 1)
    assert oracle_rrp(m1) == (0, 1)
    assert oracle_rpm(m1).positions == ((0, 0), (1, 1))

    m4 = mat([[0, 0, 1, 2], [0, 0, 2, 4], [0, 3, 0, 1]])
    assert oracle_rank(m4) == 2
    assert oracle_crp(m4) == (1, 2)
    assert oracle_rrp(m4) == (0, 2)
    assert oracle_rpm(m4).positions == ((0, 2), (2, 1))

    z = DenseMatrix.zeros(F7, 2, 3)
    assert oracle_rank(z) == 0
    assert oracle_crp(z) == ()
    assert oracle_rpm(z).positions == ()

    ident = DenseMatrix.identity(F7, 3)
    assert oracle_crp(ident) == (0, 1, 2)
    assert oracle_rpm(ident).positions == ((0, 0), (1, 1), (2, 2))

    assert oracle_crp(mat([[0, 1], [0, 2]])) == (1,)
    assert oracle_rpm(mat([[0, 1], [1, 1]])).positions == ((0, 1), (1, 0))


def test_profiles_are_transpose_consistent_exhaustively():
    f2 = PrimeField(2)
    for entries in itertools.product(range(2), repeat=9):
        m = DenseMatrix(f2, np.array(entries, dtype=np.int64).reshape(3, 3))
        assert oracle_rrp(m) == oracle_crp(m.transpose())
        rpm = oracle_rpm(m)
        assert rpm.rank == oracle_rank(m)
        # first r entries of the profiles are the supports of the rpm
        assert column_support(rpm) == tuple(sorted(oracle_crp(m)))
        assert row_support(rpm) == tuple(sorted(oracle_rrp(m)))


def test_rpm_transpose_is_rpm_of_transpose():
    rng = random.Random(11)
    for _ in range(60):
        m = DenseMatrix.random(F7, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        got = oracle_rpm(m.transpose()).positions
        want = tuple(sorted((c, r) for r, c in oracle_rpm(m).positions))
        assert got == want


def test_grp_frozen_values():
    assert has_grp(mat([[2, 4], [1, 3]]))
    assert not has_grp(mat([[0, 1], [1, 1]]))
    assert not has_grp(mat([[1, 2, 3], [4, 5, 6], [0, 1, 2]]))  # singular
    assert has_grp(DenseMatrix.identity(F7, 4))


@given(st.integers(2, 5), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_dodgson_identity_holds(n, seed):
    rng = random.Random(seed)
    field = PrimeField(7) if seed % 2 else PrimeField(131071)
    m = DenseMatrix.random(field, n, n, rng)
    assert check_dodgson(m)


def test_dodgson_holds_with_repeated_rows():
    rng = random.Random(5)
    for n in (2, 3, 4):
        base = DenseMatrix.random(F7, n, n, rng)
        arr = base.array.copy()
        arr[n - 1] = arr[0]
        assert check_dodgson(DenseMatrix(F7, arr))
