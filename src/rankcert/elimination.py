"""Gaussian elimination over prime fields.

Two PLUQ variants live here.  `pluq_crp` pivots on the first usable
column and only ever swaps rows, which makes the column rank profile
readable from the factorization.  `pluq_rpm` pivots lexicographically
and applies rotations instead of transpositions, which preserves enough
of the original row/column order that the whole rank profile matrix is
readable.  Both return the same dataclass.

Also here: the no-pivoting LU used once a matrix is known to have
generic rank profile, the LDUP factorization built on top of it, dense
triangular solves, and the random instance generators shared by tests
and the command line tool.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

import numpy as np

from .field import PrimeField
from .matrix import (
    DenseMatrix,
    Diagonal,
    DimensionError,
    Permutation,
    RankProfileMatrix,
    conjugate_by_permutations,
    pad_matrix,
)


class SingularPivotError(ValueError):
    """Raised when elimination without pivoting meets a zero pivot."""


class InconsistentSystemError(ValueError):
    """Raised when a linear system has no solution."""


@dataclass(frozen=True)
class PluqFactorization:
    """A = row_perm . L . U . col_perm with L of shape m x r, U of shape r x n.

    `row_perm` maps tracked-row index k to the original row holding
    pivot k; `col_perm` is the inverse of the tracked column order, so
    `col_perm.inverse()(k)` is the original column of pivot k.
    """

    field: PrimeField
    m: int
    n: int
    r: int
    row_perm: Permutation
    lower: DenseMatrix
    upper: DenseMatrix
    col_perm: Permutation

    def reconstruct(self) -> DenseMatrix:
        core = self.lower @ self.upper
        return self.row_perm.permute_rows(self.col_perm.permute_cols(core))

    def pivot_rows(self) -> tuple[int, ...]:
        return tuple(self.row_perm(k) for k in range(self.r))

    def pivot_cols(self) -> tuple[int, ...]:
        inv = self.col_perm.inverse()
        return tuple(inv(k) for k in range(self.r))

    def rank_profile_matrix(self) -> RankProfileMatrix:
        inv = self.col_perm.inverse()
        pos = tuple((self.row_perm(k), inv(k)) for k in range(self.r))
        return RankProfileMatrix(self.m, self.n, pos)

    def left_conjugate(self) -> DenseMatrix:
        """row_perm . [L | 0] . row_perm^T, square m x m."""
        padded = pad_matrix(self.lower, self.m, self.m)
        return conjugate_by_permutations(self.row_perm, padded, self.row_perm.inverse())



@dataclass(frozen=True)
class LdupFactorization:
    """A = L . D . U . P with L unit lower, D invertible diagonal,
    U unit upper and P a permutation matrix.  Only for nonsingular A."""

    field: PrimeField
    n: int
    lower: DenseMatrix
    diag: Diagonal
    upper: DenseMatrix
    perm: Permutation

    def reconstruct(self) -> DenseMatrix:
        core = self.lower @ self.diag.matrix() @ self.upper
        return self.perm.permute_cols(core)

    def determinant(self) -> int:
        return self.field.mul(self.diag.product(), self.perm.sign() % self.field.p)


def pluq_crp(a: DenseMatrix) -> PluqFactorization:
    """Row-transposition PLUQ whose pivot columns are the column rank profile.

    Columns are scanned left to right; a column with no nonzero entry at
    or below the current pivot row is skipped for good.  Skipped columns
    are never touched by later updates, so the tracked column order is
    the pivot columns followed by the skipped ones in original order.
    """
    p = a.field.p
    w = a.array.copy()
    m, n = w.shape
    rp = list(range(m))
    pivcols: list[int] = []
    k = 0
    for c in range(n):
        if k == m:
            break
        nz = np.nonzero(w[k:, c])[0]
        if nz.size == 0:
            continue
        i = k + int(nz[0])
        if i != k:
            w[[k, i]] = w[[i, k]]
            rp[k], rp[i] = rp[i], rp[k]
        inv = pow(int(w[k, c]), -1, p)
        if k + 1 < m:
            mult = (w[k + 1 :, c] * inv) % p
            if c + 1 < n:
                w[k + 1 :, c + 1 :] = (
                    w[k + 1 :, c + 1 :] - np.outer(mult, w[k, c + 1 :])
                ) % p
            w[k + 1 :, c] = mult
        pivcols.append(c)
        k += 1
    r = k
    pivset = set(pivcols)
    cp = pivcols + [c for c in range(n) if c not in pivset]

    lower = np.zeros((m, r), dtype=np.int64)
    for j, c in enumerate(pivcols):
        lower[j, j] = 1
        lower[j + 1 :, j] = w[j + 1 :, c]
    upper = w[:r][:, cp].copy()
    upper[:, :r] = np.triu(upper[:, :r])

    return PluqFactorization(
        field=a.field,
        m=m,
        n=n,
        r=r,
        row_perm=Permutation(tuple(rp)),
        lower=DenseMatrix(a.field, lower),
        upper=DenseMatrix(a.field, upper),
        col_perm=Permutation(tuple(cp)).inverse(),
    )


def pluq_rpm(a: DenseMatrix) -> PluqFactorization:
    """Rotation-based PLUQ that reveals the rank profile matrix.

    At each step the pivot is the nonzero entry of the untouched
    trailing block with lexicographically smallest (row, column)
    position, and it is brought to the front by rotating the
    intervening rows and columns rather than swapping.
    """
    p = a.field.p
    w = a.array.copy()
    m, n = w.shape
    rp = list(range(m))
    cp = list(range(n))
    k = 0
    while k < m and k < n:
        piv = None
        for i in range(k, m):
            nz = np.nonzero(w[i, k:])[0]
            if nz.size:
                piv = (i, k + int(nz[0]))
                break
        if piv is None:
            break
        i, j = piv
        if i != k:
            w[k : i + 1] = np.roll(w[k : i + 1], 1, axis=0)
            rp[k : i + 1] = [rp[i]] + rp[k:i]
        if j != k:
            w[:, k : j + 1] = np.roll(w[:, k : j + 1], 1, axis=1)
            cp[k : j + 1] = [cp[j]] + cp[k:j]
        inv = pow(int(w[k, k]), -1, p)
        if k + 1 < m:
            mult = (w[k + 1 :, k] * inv) % p
            if k + 1 < n:
                w[k + 1 :, k + 1 :] = (
                    w[k + 1 :, k + 1 :] - np.outer(mult, w[k, k + 1 :])
                ) % p
            w[k + 1 :, k] = mult
        k += 1
    r = k

    lower = np.tril(w[:, :r], -1)
    for i in range(r):
        lower[i, i] = 1
    upper = np.triu(w[:r, :])

    return PluqFactorization(
        field=a.field,
        m=m,
        n=n,
        r=r,
        row_perm=Permutation(tuple(rp)),
        lower=DenseMatrix(a.field, lower),
        upper=DenseMatrix(a.field, upper),
        col_perm=Permutation(tuple(cp)).inverse(),
    )


def lu_nopivot(a: DenseMatrix) -> tuple[DenseMatrix, DenseMatrix]:
    """A = L . U with no pivoting; A must be square with all leading
    principal minors nonzero, otherwise SingularPivotError."""
    if a.m != a.n:
        raise DimensionError("no-pivot LU needs a square matrix")
    p = a.field.p
    n = a.n
    w = a.array.copy()
    for k in range(n):
        if w[k, k] == 0:
            raise SingularPivotError(f"zero pivot at step {k}")
        inv = pow(int(w[k, k]), -1, p)
        if k + 1 < n:
            mult = (w[k + 1 :, k] * inv) % p
            w[k + 1 :, k + 1 :] = (
                w[k + 1 :, k + 1 :] - np.outer(mult, w[k, k + 1 :])
            ) % p
            w[k + 1 :, k] = mult
    lower = np.tril(w, -1)
    np.fill_diagonal(lower, 1)
    upper = np.triu(w)
    return DenseMatrix(a.field, lower), DenseMatrix(a.field, upper)


def ldup(a: DenseMatrix, rpm: PluqFactorization | None = None) -> LdupFactorization:
    """LDUP factorization of a nonsingular square matrix.

    The permutation is read off the rank profile matrix of A; pushing
    its transpose into A from the right leaves a matrix with generic
    rank profile, whose LU is the conjugated PLUQ: the unit lower factor
    is ``left_conjugate()`` and the upper one row_perm.U.col_perm with
    its columns permuted by P^-1.  The LU of A.P^-1 is unique, so no
    second elimination is needed.  ``rpm`` is ``pluq_rpm(a)`` when the
    caller has already computed it.
    """
    if a.m != a.n:
        raise DimensionError("LDUP needs a square matrix")
    fact = pluq_rpm(a) if rpm is None else rpm
    n = a.n
    if fact.r < n:
        raise SingularPivotError("matrix is singular")
    images = [0] * n
    inv_cp = fact.col_perm.inverse()
    for k in range(n):
        images[inv_cp(k)] = fact.row_perm(k)
    perm = Permutation(tuple(images))
    lower = fact.left_conjugate()
    upper_full = perm.inverse().permute_cols(
        fact.row_perm.permute_rows(fact.col_perm.permute_cols(fact.upper))
    )
    d = np.diag(upper_full.array).copy()
    inv_d = np.array([pow(int(x), -1, a.field.p) for x in d], dtype=np.int64)
    upper_unit = (upper_full.array * inv_d[:, None]) % a.field.p
    return LdupFactorization(
        field=a.field,
        n=n,
        lower=lower,
        diag=Diagonal(a.field, tuple(int(x) for x in d)),
        upper=DenseMatrix(a.field, upper_unit),
        perm=perm,
    )


# Triangular and general solves ----------------------------------------------


def _rhs_block(b: np.ndarray, n: int) -> np.ndarray:
    b = np.asarray(b, dtype=np.int64)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise DimensionError("triangular solve shape mismatch")
    return (b[:, None] if b.ndim == 1 else b).copy()


def trsv_lower(l: DenseMatrix, b: np.ndarray, *, unit: bool = False) -> np.ndarray:
    """Solve L X = B for square lower triangular L by forward substitution.

    B is a vector or an n x k block of right-hand sides; each row of X
    costs one product of the rows already solved with a row of L.
    """
    p = l.field.p
    n = l.n
    if l.m != n:
        raise DimensionError("triangular solve shape mismatch")
    x = _rhs_block(b, n)
    for i in range(n):
        s = (x[i] - l._mul_reduce(x[:i].T, l.array[i, :i])) % p
        x[i] = s if unit else (s * pow(int(l.array[i, i]), -1, p)) % p
    return x[:, 0] if np.ndim(b) == 1 else x


def trsv_upper(u: DenseMatrix, b: np.ndarray, *, unit: bool = False) -> np.ndarray:
    """Solve U X = B for square upper triangular U by back substitution;
    B is a vector or an n x k block, as for trsv_lower."""
    p = u.field.p
    n = u.n
    if u.m != n:
        raise DimensionError("triangular solve shape mismatch")
    x = _rhs_block(b, n)
    for i in reversed(range(n)):
        s = (x[i] - u._mul_reduce(x[i + 1 :].T, u.array[i, i + 1 :])) % p
        x[i] = s if unit else (s * pow(int(u.array[i, i]), -1, p)) % p
    return x[:, 0] if np.ndim(b) == 1 else x


def solve_leading_pivots(
    fact: PluqFactorization, rhs: np.ndarray, counts
) -> np.ndarray:
    """X with A . X = rhs for the A that ``fact`` factors, where column j
    of X is zero outside the first counts[j] pivot columns.

    Those pivot columns are independent, so the solution is unique: the
    one that sets every other (free) variable to zero.  ``rhs`` is a
    vector of length m with ``counts`` an int, or an m x k block with one
    count per column.  Raises InconsistentSystemError when some column
    has no such solution.
    """
    rhs = np.asarray(rhs, dtype=np.int64)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != fact.m:
        raise DimensionError("right-hand side length mismatch")
    r = fact.r
    b = fact.row_perm.apply_inverse_to_vector(rhs)
    lead = DenseMatrix(fact.field, fact.lower.array[:r])
    t = trsv_lower(lead, b[:r], unit=True)
    # A[:, first k pivots] = P . L[:, :k] . U[:k, :k]: truncating the
    # forward solve at k is the whole restriction, and the back solve of
    # a truncated vector stays truncated
    keep = np.arange(r).reshape((r,) + (1,) * (b.ndim - 1)) < np.asarray(counts)
    t = np.where(keep, t, 0)
    if np.any(fact.lower._mul_reduce(fact.lower.array, t) != b):
        raise InconsistentSystemError("right-hand side outside the column span")
    z = np.zeros((fact.n,) + b.shape[1:], dtype=np.int64)
    z[:r] = trsv_upper(DenseMatrix(fact.field, fact.upper.array[:, :r]), t)
    return fact.col_perm.apply_inverse_to_vector(z)


def solve_consistent(a: DenseMatrix, b: np.ndarray) -> np.ndarray:
    """One solution of A x = b with the free variables set to zero.

    Raises InconsistentSystemError when the system has no solution.
    """
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (a.m,):
        raise DimensionError("right-hand side length mismatch")
    fact = pluq_crp(a)
    return solve_leading_pivots(fact, b, fact.r)


def rank(a: DenseMatrix) -> int:
    return pluq_crp(a).r


def determinant(a: DenseMatrix) -> int:
    """Determinant through elimination (fast path, used by provers)."""
    if a.m != a.n:
        raise DimensionError("determinant needs a square matrix")
    fact = pluq_crp(a)
    if fact.r < a.n:
        return 0
    p = a.field.p
    prod = 1
    for i in range(a.n):
        prod = (prod * int(fact.upper.array[i, i])) % p
    sign = (fact.row_perm.sign() * fact.col_perm.sign()) % p
    return (prod * sign) % p


# Instance generators ---------------------------------------------------------


def random_unit_lower(field: PrimeField, n: int, rng: random.Random) -> DenseMatrix:
    arr = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        arr[i, i] = 1
        for j in range(i):
            arr[i, j] = rng.randrange(field.p)
    return DenseMatrix(field, arr)


def random_unit_upper(field: PrimeField, n: int, rng: random.Random) -> DenseMatrix:
    return random_unit_lower(field, n, rng).transpose()


def random_nonsingular(field: PrimeField, n: int, rng: random.Random) -> DenseMatrix:
    while True:
        cand = DenseMatrix.random(field, n, n, rng)
        if pluq_crp(cand).r == n:
            return cand


def random_grp_matrix(field: PrimeField, n: int, rng: random.Random) -> DenseMatrix:
    """Random matrix all of whose leading principal minors are nonzero."""
    lower = random_unit_lower(field, n, rng)
    upper = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        upper[i, i] = rng.randrange(1, field.p)
        for j in range(i + 1, n):
            upper[i, j] = rng.randrange(field.p)
    return lower @ DenseMatrix(field, upper)


def random_rank_deficient(
    field: PrimeField, m: int, n: int, r: int, rng: random.Random
) -> DenseMatrix:
    """Random m x n matrix of rank exactly r."""
    if r < 0 or r > min(m, n):
        raise ValueError("rank out of range")
    if r == 0:
        return DenseMatrix.zeros(field, m, n)
    while True:
        left = DenseMatrix.random(field, m, r, rng)
        right = DenseMatrix.random(field, r, n, rng)
        prod = left @ right
        if pluq_crp(prod).r == r:
            return prod
