"""Shape predicates and small helpers the elimination, matrix, field and
oracle tests share."""

import numpy as np

from rankcert.field import PrimeField
from rankcert.matrix import DenseMatrix, DimensionError, Permutation, RankProfileMatrix


def add(field: PrimeField, a: int, b: int) -> int:
    s = a + b
    return s - field.p if s >= field.p else s


def sub(field: PrimeField, a: int, b: int) -> int:
    d = a - b
    return d + field.p if d < 0 else d


def is_zero(mat: DenseMatrix) -> bool:
    return not mat.array.any()


def compose(first: Permutation, then: Permutation) -> Permutation:
    """first after then: compose(first, then)(i) = first(then(i))."""
    if first.n != then.n:
        raise DimensionError("permutation sizes differ")
    return Permutation([first.images[then.images[i]] for i in range(first.n)])


def pad_matrix(
    mat: DenseMatrix, m: int, n: int, *, identity_tail: bool = False
) -> DenseMatrix:
    """Embed mat in the top-left of an m x n matrix.  With identity_tail,
    the bottom-right (m - mat.m) square block gets ones on its diagonal."""
    if m < mat.m or n < mat.n:
        raise DimensionError("padding cannot shrink")
    arr = np.zeros((m, n), dtype=np.int64)
    arr[: mat.m, : mat.n] = mat.array
    if identity_tail:
        for k in range(min(m - mat.m, n - mat.n)):
            arr[mat.m + k, mat.n + k] = 1
    return DenseMatrix(mat.field, arr)


def conjugate_by_permutations(
    p: Permutation, mat: DenseMatrix, q: Permutation
) -> DenseMatrix:
    """P * mat * Q via index maps; mat must already be |P| x |Q|."""
    if mat.m != p.n or mat.n != q.n:
        raise DimensionError("pad the matrix to the permutation sizes first")
    return p.permute_rows(q.permute_cols(mat))


def to_dense(rpm: RankProfileMatrix, field: PrimeField) -> DenseMatrix:
    arr = np.zeros((rpm.m, rpm.n), dtype=np.int64)
    for i, j in rpm.positions:
        arr[i, j] = 1
    return DenseMatrix(field, arr)


def row_support(rpm: RankProfileMatrix) -> tuple:
    return tuple(sorted(i for i, _ in rpm.positions))


def column_support(rpm: RankProfileMatrix) -> tuple:
    return tuple(sorted(j for _, j in rpm.positions))


def is_lower_triangular(mat: DenseMatrix, *, strict: bool = False) -> bool:
    k = -1 if strict else 0
    return not np.triu(mat.array, k + 1).any()


def is_upper_triangular(mat: DenseMatrix, *, strict: bool = False) -> bool:
    k = 1 if strict else 0
    return not np.tril(mat.array, k - 1).any()


def is_unit_lower_leading(mat: DenseMatrix, r: int) -> bool:
    """m x r matrix whose top r x r block is unit lower triangular."""
    if mat.n != r or mat.m < r:
        return False
    top = mat.array[:r, :]
    if np.triu(top, 1).any():
        return False
    return bool((np.diag(top) == 1).all()) if r else True


def is_row_echelon(mat: DenseMatrix) -> bool:
    """Pivot columns strictly increase; zero rows trail."""
    last = -1
    seen_zero = False
    for i in range(mat.m):
        nz = np.nonzero(mat.array[i])[0]
        if len(nz) == 0:
            seen_zero = True
            continue
        if seen_zero:
            return False
        if nz[0] <= last:
            return False
        last = int(nz[0])
    return True


def echelon_form(fact) -> DenseMatrix:
    """U of a PLUQ with its columns put back in original order."""
    return fact.col_perm.permute_cols(fact.upper)


def left_conjugate(fact) -> DenseMatrix:
    """row_perm . [L | 0] . row_perm^T of a PLUQ, square m x m."""
    padded = pad_matrix(fact.lower, fact.m, fact.m)
    return conjugate_by_permutations(fact.row_perm, padded, fact.row_perm.inverse())


def right_conjugate(fact) -> DenseMatrix:
    """col_perm^T . [U ; 0] . col_perm of a PLUQ, square n x n."""
    padded = pad_matrix(fact.upper, fact.n, fact.n)
    return conjugate_by_permutations(fact.col_perm.inverse(), padded, fact.col_perm)


def reveals_rank_profile_matrix(fact) -> bool:
    """True when the conjugated factors of a PLUQ stay triangular.

    This is the checkable condition under which the positions in
    `rank_profile_matrix` really are the rank profile matrix of the
    reconstructed matrix.
    """
    return is_lower_triangular(left_conjugate(fact)) and is_upper_triangular(
        right_conjugate(fact)
    )
