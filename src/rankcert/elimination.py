"""Gaussian elimination over prime fields.

Every honest prover factors its matrix once, with `pluq_rpm`, the PLUQ
that reveals the rank profile matrix (Dumas, Pernet and Sultan): a
recursion over row halves on the exact kernel of `matrix.py`, with blocks
of at most _BASE_ROWS rows swept row by row.  The factorizations of the
transpose and of the pivot crossing, the no-pivoting LU and the LDUP
factorization are all read off it.

`pluq_crp`, the right-looking PLUQ that pivots on the first usable
column and only swaps rows, stays as a reference: it is the cost unit the
benchmarks and the acceptance gate time against, and attacks use it.

Also here: triangular solves (recursive, with a substitution base case),
solves on the leading pivots of a factorization, and the random instance
generators shared by tests and the command line tool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import random

import numpy as np

from .field import PrimeField
from .matrix import (
    DenseMatrix,
    Diagonal,
    DimensionError,
    Permutation,
    RankProfileMatrix,
    matmul_mod,
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

    def column_order(self) -> np.ndarray:
        """The pivot indices sorted by pivot column."""
        return np.argsort(np.array(self.pivot_cols(), dtype=np.int64))

    def transpose(self) -> "PluqFactorization":
        """The factorization of A^T with the same pivots, transposed:
        A^T = Q^T . (U^T . D^-1) . (D . L^T) . P^T for D the diagonal of
        U[:, :r], so L' is unit lower and U' upper, with no elimination."""
        p, r = self.field.p, self.r
        d = np.diag(self.upper.array[:, :r])
        inv_d = np.array([pow(int(x), -1, p) for x in d], dtype=np.int64)
        return replace(
            self,
            m=self.n,
            n=self.m,
            row_perm=self.col_perm.inverse(),
            lower=DenseMatrix._wrap(self.field, self.upper.array.T * inv_d % p),
            upper=DenseMatrix._wrap(self.field, self.lower.array.T * d[:, None] % p),
            col_perm=self.row_perm.inverse(),
        )

    def crossing(self) -> "PluqFactorization":
        """The factorization of A[rows, cols] for the pivot rows and columns,
        both sorted, when the pivot rows come sorted as `pluq_rpm`'s do:
        L[:r] . U[:, :r] with the columns put in order.  It is `pluq_rpm`
        of the crossing, field by field."""
        r = self.r
        return replace(
            self,
            m=r,
            n=r,
            row_perm=Permutation.identity(r),
            lower=DenseMatrix._wrap(self.field, self.lower.array[:r]),
            upper=DenseMatrix._wrap(self.field, self.upper.array[:, :r]),
            col_perm=Permutation(self.column_order()),
        )


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


# blocks of at most this many rows are swept row by row; taller ones split
# into row halves
_BASE_ROWS = 64


def _sweep_rows(w: np.ndarray, p: int) -> list[tuple[int, int]]:
    """`_eliminate_rows` one row at a time: row i, reduced by the pivots
    above it, pivots at its first nonzero j outside the earlier pivot
    columns, and the rows below are updated on the columns right of j,
    with the earlier pivot columns (which hold multipliers) left alone."""
    m, n = w.shape
    free = np.ones(n, dtype=bool)
    pivots = []
    for i in range(m):
        nz = np.flatnonzero(free & (w[i] != 0))
        if not nz.size:
            continue
        j = int(nz[0])
        free[j] = False
        pivots.append((i, j))
        mult = w[i + 1 :, j] * pow(int(w[i, j]), -1, p) % p
        u = np.where(free[j + 1 :], w[i, j + 1 :], 0)
        w[i + 1 :, j + 1 :] = (w[i + 1 :, j + 1 :] - np.outer(mult, u)) % p
        w[i + 1 :, j] = mult
    return pivots


def _eliminate_rows(w: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Eliminate the rows of ``w`` in order, in place; the pivots.

    Row i, reduced by the pivots of the rows above it, gives the pivot
    (i, j) at its first nonzero column j outside the earlier pivot
    columns, or none.  On return ``w`` keeps its row and column order; at
    (t, j) for each pivot (i, j) it holds the multiplier of row t when t
    comes after i, and everywhere else the reduced rows: U on the pivot
    rows, zeros on the others.

    A block of at most _BASE_ROWS rows is swept row by row.  A taller one
    eliminates its top half, solves X . U11 = A21 for the bottom half's
    multipliers (U11 is U on the top pivot columns), updates the rest of
    the bottom half with one kernel product and eliminates that.
    """
    m, n = w.shape
    if m <= _BASE_ROWS:
        return _sweep_rows(w, p)
    h = m // 2
    top = _eliminate_rows(w[:h], p)
    if not top:
        return [(h + i, j) for i, j in _eliminate_rows(w[h:], p)]
    rows = [i for i, _ in top]
    cols = [j for _, j in top]
    rest = np.setdiff1d(np.arange(n), cols)
    # the solve reads U11's upper triangle only, not the multipliers below it
    u11 = w[np.ix_(rows, cols)]
    mult = _trsm(u11.T, w[h:, cols].T, p, lower=True, unit=False).T
    w[h:, cols] = mult
    if not rest.size:
        return top
    bottom = w[h:, rest]
    bottom -= matmul_mod(mult, w[np.ix_(rows, rest)], p)
    np.remainder(bottom, p, out=bottom)
    low = _eliminate_rows(bottom, p)
    w[h:, rest] = bottom
    return top + [(h + i, int(rest[j])) for i, j in low]


def _pivots_first(size: int, pivots: list[int]) -> list[int]:
    chosen = set(pivots)
    return pivots + [x for x in range(size) if x not in chosen]


def pluq_rpm(a: DenseMatrix) -> PluqFactorization:
    """PLUQ that reveals the rank profile matrix.

    The pivots are those of `_eliminate_rows`: rows are taken in order,
    each reduced by the pivots above it, and a row's pivot is its first
    nonzero column outside the earlier pivot columns.  The tracked orders
    are the pivot rows (columns) in pivot order, then the others in
    original order, and given its pivots the factorization is unique.
    """
    p = a.field.p
    w = a.array.copy()
    m, n = w.shape
    pivots = _eliminate_rows(w, p)
    r = len(pivots)
    rp = _pivots_first(m, [i for i, _ in pivots])
    cp = _pivots_first(n, [j for _, j in pivots])
    w = w[np.ix_(rp, cp)]

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
        lower=DenseMatrix._wrap(a.field, lower),
        upper=DenseMatrix._wrap(a.field, upper),
        col_perm=Permutation(tuple(cp)).inverse(),
    )


def lu_nopivot(a: DenseMatrix) -> tuple[DenseMatrix, DenseMatrix]:
    """A = L . U with no pivoting; A must be square with all leading
    principal minors nonzero, otherwise SingularPivotError.

    That holds exactly when the rank profile matrix is the identity, and
    then both permutations of `pluq_rpm` are the identity too."""
    if a.m != a.n:
        raise DimensionError("no-pivot LU needs a square matrix")
    fact = pluq_rpm(a)
    if fact.pivot_cols() != tuple(range(a.n)):
        raise SingularPivotError("a leading principal minor vanishes")
    return fact.lower, fact.upper


def ldup(a: DenseMatrix, rpm: PluqFactorization | None = None) -> LdupFactorization:
    """LDUP factorization of a nonsingular square matrix.

    Every row of a nonsingular A pivots, in order, so its `pluq_rpm` is
    A = L . U . Q: L and U are the LU factors of A . Q^-1, which has
    generic rank profile, P = Q is read off the rank profile matrix and D
    is the diagonal of U.  ``rpm`` is ``pluq_rpm(a)`` when the caller has
    already computed it.
    """
    if a.m != a.n:
        raise DimensionError("LDUP needs a square matrix")
    fact = pluq_rpm(a) if rpm is None else rpm
    if fact.r < a.n:
        raise SingularPivotError("matrix is singular")
    p = a.field.p
    d = np.diag(fact.upper.array)
    inv_d = np.array([pow(int(x), -1, p) for x in d], dtype=np.int64)
    return LdupFactorization(
        field=a.field,
        n=a.n,
        lower=fact.lower,
        diag=Diagonal(a.field, tuple(int(x) for x in d)),
        upper=DenseMatrix._wrap(a.field, fact.upper.array * inv_d[:, None] % p),
        perm=fact.col_perm,
    )


# Triangular and general solves ----------------------------------------------


# blocks at or below this order are solved by substitution, with one
# elementwise rank-1 update per row
_TRSM_BASE = 16


def _trsm(t: np.ndarray, b: np.ndarray, p: int, *, lower: bool, unit: bool) -> np.ndarray:
    """X with T X = B, in place on the residue block B, for the lower (or
    upper) triangle of square T: solve the half that comes first,
    subtract its product with the off-diagonal block from the other half
    with one kernel product, solve that half.  A block of order at most
    _TRSM_BASE is solved row by row; each product there is of two
    residues, so exact in int64."""
    n = t.shape[0]
    if n <= _TRSM_BASE:
        for i in range(n) if lower else reversed(range(n)):
            if not unit:
                b[i] = b[i] * pow(int(t[i, i]), -1, p) % p
            rest = slice(i + 1, n) if lower else slice(i)
            b[rest] = (b[rest] - t[rest, i, None] * b[i]) % p
        return b
    h = n // 2
    first, second = (slice(h), slice(h, n)) if lower else (slice(h, n), slice(h))
    _trsm(t[first, first], b[first], p, lower=lower, unit=unit)
    b[second] -= matmul_mod(t[second, first], b[first], p)
    np.remainder(b[second], p, out=b[second])
    _trsm(t[second, second], b[second], p, lower=lower, unit=unit)
    return b


def _solve_triangular(t: DenseMatrix, b: np.ndarray, lower: bool, unit: bool) -> np.ndarray:
    n = t.n
    rhs = np.asarray(b, dtype=np.int64)
    if t.m != n or rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise DimensionError("triangular solve shape mismatch")
    x = (rhs[:, None] if rhs.ndim == 1 else rhs) % t.field.p
    _trsm(t.array, x, t.field.p, lower=lower, unit=unit)
    return x[:, 0] if rhs.ndim == 1 else x


def trsv_lower(l: DenseMatrix, b: np.ndarray, *, unit: bool = False) -> np.ndarray:
    """Solve L X = B for square lower triangular L (only its lower
    triangle is read; with ``unit``, not its diagonal either).

    B is a vector or an n x k block of right-hand sides; the solve is
    the recursion of `_trsm`, on the kernel.
    """
    return _solve_triangular(l, b, True, unit)


def trsv_upper(u: DenseMatrix, b: np.ndarray, *, unit: bool = False) -> np.ndarray:
    """Solve U X = B for square upper triangular U; B is a vector or an
    n x k block, as for trsv_lower."""
    return _solve_triangular(u, b, False, unit)


def solve_pivot_block(
    fact: PluqFactorization, b: np.ndarray, counts, *, check: bool = False
) -> np.ndarray:
    """Y with L[:r] . U[:, :r] . Y = b[:r], both in pivot order, where
    column j of Y is zero outside the first counts[j] pivots counted in
    column order (from the left); ``b`` is in tracked row order.

    A forward solve with L[:r], cut to the counts, then a back solve with
    U[:, :r].  The cut carries through the back solve because U[:, :r]
    conjugated into column order is upper triangular too: a pivot row is
    zero left of its pivot.  For a `pluq_crp` the two orders agree.  With
    ``check``, raise InconsistentSystemError unless L . T == b on every
    row of b.
    """
    r, p = fact.r, fact.field.p
    lead = DenseMatrix._wrap(fact.field, fact.lower.array[:r])
    t = trsv_lower(lead, b[:r], unit=True)
    place = np.argsort(fact.column_order())  # of each pivot, in column order
    t = np.where(place.reshape((r,) + (1,) * (t.ndim - 1)) < np.asarray(counts), t, 0)
    if check and np.any(matmul_mod(fact.lower.array[: len(b)], t, p) != b):
        raise InconsistentSystemError("right-hand side outside the column span")
    return trsv_upper(DenseMatrix._wrap(fact.field, fact.upper.array[:, :r]), t)


def solve_leading_pivots(
    fact: PluqFactorization, rhs: np.ndarray, counts
) -> np.ndarray:
    """X with A . X = rhs for the A that ``fact`` factors, where column j
    of X is zero outside the first counts[j] pivot columns, counted from
    the left.

    Those pivot columns are independent, so the solution is unique: the
    one that sets every other (free) variable to zero.  ``rhs`` is a
    vector of length m with ``counts`` an int, or an m x k block with one
    count per column.  Raises InconsistentSystemError when some column
    has no such solution.
    """
    rhs = np.asarray(rhs, dtype=np.int64)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != fact.m:
        raise DimensionError("right-hand side length mismatch")
    b = fact.row_perm.apply_inverse_to_vector(rhs)
    x = np.zeros((fact.n,) + b.shape[1:], dtype=np.int64)
    x[list(fact.pivot_cols())] = solve_pivot_block(fact, b, counts, check=True)
    return x


def solve_consistent(a: DenseMatrix, b: np.ndarray) -> np.ndarray:
    """One solution of A x = b with the free variables set to zero.

    Raises InconsistentSystemError when the system has no solution.
    """
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (a.m,):
        raise DimensionError("right-hand side length mismatch")
    fact = pluq_rpm(a)
    return solve_leading_pivots(fact, b, fact.r)


def rank(a: DenseMatrix) -> int:
    return pluq_rpm(a).r


def determinant(a: DenseMatrix) -> int:
    """Determinant through one `pluq_rpm`, read off its LDUP."""
    if a.m != a.n:
        raise DimensionError("determinant needs a square matrix")
    fact = pluq_rpm(a)
    return ldup(a, fact).determinant() if fact.r == a.n else 0


# Instance generators ---------------------------------------------------------


def random_unit_lower(field: PrimeField, n: int, rng: random.Random) -> DenseMatrix:
    arr = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        arr[i, i] = 1
        for j in range(i):
            arr[i, j] = rng.randrange(field.p)
    return DenseMatrix._wrap(field, arr)


def random_unit_upper(field: PrimeField, n: int, rng: random.Random) -> DenseMatrix:
    return random_unit_lower(field, n, rng).transpose()


def random_nonsingular(field: PrimeField, n: int, rng: random.Random) -> DenseMatrix:
    while True:
        cand = DenseMatrix.random(field, n, n, rng)
        if pluq_rpm(cand).r == n:
            return cand


def random_grp_matrix(field: PrimeField, n: int, rng: random.Random) -> DenseMatrix:
    """Random matrix all of whose leading principal minors are nonzero."""
    lower = random_unit_lower(field, n, rng)
    upper = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        upper[i, i] = rng.randrange(1, field.p)
        for j in range(i + 1, n):
            upper[i, j] = rng.randrange(field.p)
    return lower @ DenseMatrix._wrap(field, upper)


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
        if pluq_rpm(prod).r == r:
            return prod
