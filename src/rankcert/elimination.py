"""Gaussian elimination over prime fields.

Two PLUQ variants live here.  `pluq_crp` pivots on the first usable
column and only ever swaps rows, which makes the column rank profile
readable from the factorization.  `pluq_rpm` reveals the whole rank
profile matrix: its pivot is always the lexicographically first nonzero
of what is left, brought to the front by rotating the rows and columns in
between rather than swapping them.  Both return the same dataclass.

`pluq_rpm` is a recursion over row halves on the exact kernel of
`matrix.py` (Dumas, Pernet and Sultan's rank-profile-revealing PLUQ,
split by rows only).  It eliminates the top half, solves for the bottom
half's multipliers with the recursive triangular solve, updates the
bottom half with one kernel product and eliminates it.  Its base case is
the right-looking rotation loop on blocks of at most _BASE_ROWS rows, so
inputs that short run that loop alone.  The pivot rule does not depend on
the order the rows are eliminated in, and given its pivots the
factorization is unique, so L and U are the loop's to the byte.

Also here: the no-pivoting LU used once a matrix is known to have
generic rank profile, the LDUP factorization built on top of it,
triangular solves (recursive, with a substitution base case), and the
random instance generators shared by tests and the command line tool.
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
    matmul_mod,
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


# pluq_rpm runs the rotation loop itself on inputs with at most this many
# rows; taller ones split into row halves until their blocks are this short
_BASE_ROWS = 64


def _rotate_eliminate(w: np.ndarray, p: int) -> tuple[list[int], list[int], int]:
    """The rotation loop, in place: the tracked row and column orders and
    the rank.  On return ``w`` is in tracked order, with the multipliers
    below the diagonal of its first r columns and U on and above it.

    At each step the pivot is the nonzero entry of the untouched
    trailing block with lexicographically smallest (row, column)
    position, and it is brought to the front by rotating the
    intervening rows and columns rather than swapping.
    """
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
    return rp, cp, k


def _eliminate_rows(w: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Eliminate the rows of ``w`` in order, in place; the pivots.

    Row i, reduced by the pivots of the rows above it, gives the pivot
    (i, j) at its first nonzero column j outside the earlier pivot
    columns, or none -- the pivot the rotation loop picks.  On return
    ``w`` keeps its row and column order; at (t, j) for each pivot (i, j)
    it holds the multiplier of row t when t comes after i, and everywhere
    else the reduced rows: U on the pivot rows, zeros on the others.

    A block of at most _BASE_ROWS rows runs the rotation loop.  A taller
    one eliminates its top half, solves X . U11 = A21 for the bottom
    half's multipliers (U11 is U on the top pivot columns), updates the
    bottom half on the other columns with one kernel product,
    A22 - X . U12, and eliminates that.
    """
    m, n = w.shape
    if m <= _BASE_ROWS:
        rp, cp, r = _rotate_eliminate(w, p)
        w[np.ix_(rp, cp)] = w.copy()
        return [(rp[k], cp[k]) for k in range(r)]
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
    """Rotation-based PLUQ that reveals the rank profile matrix.

    The pivots are those of the rotation loop (see `_rotate_eliminate`):
    rows are taken in order, each reduced by the pivots above it, and a
    row's pivot is its first nonzero column outside the earlier pivot
    columns.  So the tracked orders are the pivot rows (columns) in pivot
    order, then the others in original order, and given its pivots the
    factorization is unique.  Inputs with at most _BASE_ROWS rows run the
    loop as it is; taller ones go through the row-halving recursion of
    `_eliminate_rows`, which yields the same L and U.
    """
    p = a.field.p
    w = a.array.copy()
    m, n = w.shape
    if m <= _BASE_ROWS:
        rp, cp, r = _rotate_eliminate(w, p)
    else:
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
        upper=DenseMatrix._wrap(a.field, upper_unit),
        perm=perm,
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
    lead = DenseMatrix._wrap(fact.field, fact.lower.array[:r])
    t = trsv_lower(lead, b[:r], unit=True)
    # A[:, first k pivots] = P . L[:, :k] . U[:k, :k]: truncating the
    # forward solve at k is the whole restriction, and the back solve of
    # a truncated vector stays truncated
    keep = np.arange(r).reshape((r,) + (1,) * (b.ndim - 1)) < np.asarray(counts)
    t = np.where(keep, t, 0)
    if np.any(matmul_mod(fact.lower.array, t, fact.field.p) != b):
        raise InconsistentSystemError("right-hand side outside the column span")
    z = np.zeros((fact.n,) + b.shape[1:], dtype=np.int64)
    z[:r] = trsv_upper(DenseMatrix._wrap(fact.field, fact.upper.array[:, :r]), t)
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
    return DenseMatrix._wrap(field, arr)


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
        if pluq_crp(prod).r == r:
            return prod
