"""Gaussian elimination over prime fields.

Every honest prover factors its matrix once, with `pluq_rpm`, the PLUQ
that reveals the rank profile matrix (Dumas, Pernet and Sultan): a
recursion over row halves on the exact kernel of `matrix.py`, with blocks
of at most _BASE_ROWS rows swept row by row.  A swept row, reduced by the
pivots above it, is zero on their columns, so it pivots at its first
nonzero with no mask of the columns taken; a block's multipliers go into
its pivot columns once, at the end.  The bottom half's multipliers come
from one unit triangular solve on a row-major copy, and L and U are
gathered from the eliminated array with one column gather and two row
gathers.  The factorizations of the transpose and of the pivot crossing,
the no-pivoting LU and the LDUP factorization are all read off it, the
LDUP one with no pass over U: it keeps D . U and divides D out only when
asked.  A prover handed a column claim runs `pluq_rpm` once as
`pluq_leading`, with the claimed columns moved first.  The elimination
and the triangular solves defer reduction mod p while the pending
updates still fit in int64 (`_room`), and reduce an entry when they read
it.

`pluq_crp`, the right-looking PLUQ that pivots on the first usable
column and only swaps rows, stays as a reference: it is the cost unit the
benchmarks and the acceptance gate time against, and serves nothing else.

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
    U unit upper and P a permutation matrix.  Only for nonsingular A.

    U is held as ``du`` = D . U, the upper factor of the elimination, and
    ``upper`` divides D out only when asked: a prover's round reads one
    row of U and scales its answer by the inverse diagonal entry instead."""

    field: PrimeField
    n: int
    lower: DenseMatrix
    diag: Diagonal
    du: DenseMatrix
    perm: Permutation

    @property
    def upper(self) -> DenseMatrix:
        p = self.field.p
        inv_d = np.array([pow(d, -1, p) for d in self.diag.entries], dtype=np.int64)
        return DenseMatrix._wrap(self.field, self.du.array * inv_d[:, None] % p)

    def reconstruct(self) -> DenseMatrix:
        return self.perm.permute_cols(self.lower @ self.du)

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


def _room(p: int) -> int:
    """How many rank-1 updates, each at most (p - 1)^2, an int64 entry can
    take unreduced: entries stay above -64p before their pending updates,
    the drift margin for one unreduced residue per recursion level (under
    35 levels below MAX_DIM).  At least 1 for every p < 2^31, and among
    primes 1 only at 2^31 - 1."""
    return (2**63 - 64 * p) // (p - 1) ** 2


def _sweep_rows(w: np.ndarray, p: int) -> list[tuple[int, int]]:
    """`_eliminate_rows` one row at a time.  Row i, reduced by the pivots
    above it, is zero on their columns, so it pivots at its first nonzero
    j, and the rows below are updated on the columns from j on, which
    zeroes their column j.  The multipliers are kept aside and written into
    the pivot columns once, at the end.  Row i is reduced mod p when it
    comes up and the rows below once `_room` updates have piled up, or at a
    room of 1 as each is written; so every row leaves reduced."""
    m, n = w.shape
    mults = np.zeros((min(m, n), m), dtype=np.int64)  # pivot k's in row k
    pivots = []
    room, piled = _room(p), 0
    for i in range(m):
        row = w[i]
        if room > 1:
            np.remainder(row, p, out=row)
        nz = row.nonzero()[0]
        if not nz.size:
            continue
        j = int(nz[0])
        rows = w[i + 1 :]
        below = rows[:, j:]
        mult = mults[len(pivots), i + 1 :]
        col = below[:, 0] % p if room > 1 else below[:, 0]
        np.multiply(col, pow(int(row[j]), -1, p), out=mult)
        mult %= p
        pivots.append((i, j))
        below -= mult[:, None] * row[j:]
        if room == 1:
            np.remainder(below, p, out=below)
        else:
            piled = (piled + 1) % room
            if not piled:
                np.remainder(rows, p, out=rows)
    if pivots:
        # each pivot column is zero below its pivot row, where mults is not
        w[:, [j for _, j in pivots]] += mults[: len(pivots)].T
    return pivots


def _eliminate_rows(w: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Eliminate the rows of ``w`` in order, in place; the pivots.

    Row i, reduced by the pivots of the rows above it, gives the pivot
    (i, j) at its first nonzero column j outside the earlier pivot
    columns, or none.  On return ``w`` keeps its row and column order; at
    (t, j) for each pivot (i, j) it holds the multiplier of row t when t
    comes after i, and everywhere else the reduced rows: U on the pivot
    rows, zeros on the others.

    A block of at most _BASE_ROWS rows is swept row by row
    (`_sweep_rows`).  A taller one eliminates its top half, solves
    X . U11 = A21 for the bottom half's multipliers (U11 is U on the top
    pivot columns; the solve is unit, on U11 with each row divided by its
    pivot), updates the rest of the bottom half with one kernel product
    and eliminates that.
    Entries may come in unreduced, above -64p (`_room`'s drift margin),
    and leave reduced: each level subtracts its kernel product unreduced,
    a drift of less than p.  At a room of 1 they come in reduced, and
    each level reduces after its product.
    """
    m, n = w.shape
    if m <= _BASE_ROWS:
        return _sweep_rows(w, p)
    h = m // 2
    top = _eliminate_rows(w[:h], p)
    if not top:
        return [(h + i, j) for i, j in _eliminate_rows(w[h:], p)]
    cols = [j for _, j in top]
    free = np.ones(n, dtype=bool)
    free[cols] = False
    rest = np.flatnonzero(free)
    upper = np.take(w[:h], [i for i, _ in top], axis=0)
    # X . U11 = A21 is Y . U1 = A21 for U11 = D . U1 and Y = X . D, a unit
    # solve that reads U1's strict upper triangle only, not the multipliers
    # below it; it runs on the rows of Y^T, row-major from the copy
    u11 = np.take(upper, cols, axis=1)
    inv_d = np.array([pow(int(d), -1, p) for d in np.diagonal(u11)], dtype=np.int64)
    mult = np.take(w[h:], cols, axis=1).T.copy()
    _trsm((u11 * inv_d[:, None] % p).T, mult, p, lower=True, unit=True)
    mult = (mult * inv_d[:, None] % p).T
    w[h:, cols] = mult
    if not rest.size:
        return top
    # row-major, as the sweep wants it: w[h:, rest] would come column-major
    bottom = np.take(w[h:], rest, axis=1)
    bottom -= matmul_mod(mult, np.take(upper, rest, axis=1), p)
    if _room(p) == 1:
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
    # one gather puts the columns in order; U is its pivot rows, L its
    # pivot columns with the rows in order
    w = np.take(w, cp, axis=1)
    upper = np.take(w, rp[:r], axis=0)
    lower = np.take(w[:, :r], rp, axis=0)
    below = np.tri(r, k=-1, dtype=bool)
    np.copyto(upper[:, :r], 0, where=below)
    np.copyto(lower[:r], 0, where=below.T)
    np.fill_diagonal(lower, 1)

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


def pluq_leading(a: DenseMatrix, cols) -> PluqFactorization:
    """A PLUQ of A: `pluq_rpm` of A with the columns ``cols`` moved first,
    its column permutation composed with the move.  A rank profile matrix
    holds the rank profile of every leading block, so the pivots among
    ``cols`` are the column rank profile of A[:, cols]."""
    order = _pivots_first(a.n, list(cols))
    fact = pluq_rpm(DenseMatrix._wrap(a.field, a.array[:, order]))
    moved = Permutation(tuple(order[c] for c in fact.col_perm.inverse().images))
    return replace(fact, col_perm=moved.inverse())


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
    is the diagonal of U.  The unit upper factor is D^-1 . U; the result
    holds U itself and reads the diagonal off it, so nothing is rescaled
    (see `LdupFactorization`).  ``rpm`` is ``pluq_rpm(a)`` when the caller
    has already computed it.
    """
    if a.m != a.n:
        raise DimensionError("LDUP needs a square matrix")
    fact = pluq_rpm(a) if rpm is None else rpm
    if fact.r < a.n:
        raise SingularPivotError("matrix is singular")
    return LdupFactorization(
        field=a.field,
        n=a.n,
        lower=fact.lower,
        diag=Diagonal(a.field, np.diag(fact.upper.array).tolist()),
        du=fact.upper,
        perm=fact.col_perm,
    )


# Triangular and general solves ----------------------------------------------


# blocks at or below this order are solved by substitution, with one
# elementwise rank-1 update per row
_TRSM_BASE = 16


def _trsm(t: np.ndarray, b: np.ndarray, p: int, *, lower: bool, unit: bool) -> np.ndarray:
    """X with T X = B, in place on B, for the lower (or upper) triangle of
    square T: solve the half that comes first, subtract its product with
    the off-diagonal block from the other half with one kernel product,
    solve that half.  A block of order at most _TRSM_BASE is solved row by
    row: T holds residues, so each update there is at most (p - 1)^2.
    As in `_sweep_rows`, a row of B is reduced when it is read and the rows
    after it once `_room` updates have piled up; B may come in unreduced
    as `_eliminate_rows`' entries may, and leaves reduced."""
    n = t.shape[0]
    room, piled = _room(p), 0
    if n <= _TRSM_BASE:
        for i in range(n) if lower else reversed(range(n)):
            if room > 1:
                np.remainder(b[i], p, out=b[i])
            if not unit:
                b[i] = b[i] * pow(int(t[i, i]), -1, p) % p
            rest = slice(i + 1, n) if lower else slice(i)
            b[rest] -= t[rest, i, None] * b[i]
            piled = (piled + 1) % room
            if not piled:
                np.remainder(b[rest], p, out=b[rest])
        return b
    h = n // 2
    first, second = (slice(h), slice(h, n)) if lower else (slice(h, n), slice(h))
    _trsm(t[first, first], b[first], p, lower=lower, unit=unit)
    b[second] -= matmul_mod(t[second, first], b[first], p)
    if room == 1:
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
    t = cut_to_counts(fact, trsv_lower(lead, b[:r], unit=True), counts)
    if check and np.any(matmul_mod(fact.lower.array[: len(b)], t, p) != b):
        raise InconsistentSystemError("right-hand side outside the column span")
    return trsv_upper(DenseMatrix._wrap(fact.field, fact.upper.array[:, :r]), t)


def cut_to_counts(fact: PluqFactorization, t: np.ndarray, counts) -> np.ndarray:
    """T, in pivot order, with entry (k, j) set to zero unless pivot k is
    among the first counts[j] pivots counted in column order."""
    place = np.argsort(fact.column_order())  # of each pivot, in column order
    return np.where(place.reshape((fact.r,) + (1,) * (t.ndim - 1)) < np.asarray(counts), t, 0)


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
