"""Dense matrices over a prime field, permutations, and the text format.

Entries are canonical residues held in int64 numpy arrays.  p < 2**31
guarantees one product fits in int64; accumulated dot products are reduced
in blocks sized so the running sum cannot overflow.  When those blocks
would be shorter than the vector, products against a vector split it into
16-bit limbs instead, which keeps every partial sum far below 2**63.

Matrices are immutable at the API boundary: the backing array is marked
read-only and every operation returns a fresh matrix.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .field import PrimeField


class DimensionError(ValueError):
    """Operand shapes do not conform."""


def _block_cols(p: int, n: int) -> int:
    """Largest k with k*(p-1)**2 < 2**63, capped at n."""
    per = (p - 1) ** 2
    k = (2**63 - 1) // per if per else n
    return max(1, min(n, int(k)))


_LIMB = 16


def _limb_product(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod p for a vector b, through the 16-bit limbs of b.

    Each term is below (p-1) * 2**16 < 2**47, so blocks of about 2**16
    terms sum without overflow, each in two int64 products.
    """
    lo = b & ((1 << _LIMB) - 1)
    hi = b >> _LIMB
    step = max(1, (2**63 - 1) // ((p - 1) * ((1 << _LIMB) - 1)))
    acc = np.zeros(a.shape[:-1], dtype=np.int64)
    for s in range(0, b.shape[0], step):
        seg = a[..., s : s + step]
        part_lo = (seg @ lo[s : s + step]) % p
        part_hi = (seg @ hi[s : s + step]) % p
        acc = (acc + part_lo + (part_hi << _LIMB)) % p
    return acc


class DenseMatrix:
    __slots__ = ("field", "array")

    def __init__(self, field: PrimeField, array: np.ndarray):
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2:
            raise DimensionError("matrix array must be 2-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= field.p):
            raise ValueError("entries must be canonical residues")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("DenseMatrix is immutable")

    # constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, field: PrimeField, m: int, n: int) -> "DenseMatrix":
        return cls(field, np.zeros((m, n), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "DenseMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]]) -> "DenseMatrix":
        arr = np.array([[v % field.p for v in row] for row in rows], dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(len(rows), 0)
        return cls(field, arr)

    @classmethod
    def random(cls, field: PrimeField, m: int, n: int, rng) -> "DenseMatrix":
        arr = np.array(
            [rng.randrange(field.p) for _ in range(m * n)], dtype=np.int64
        ).reshape(m, n)
        return cls(field, arr)

    # shape ----------------------------------------------------------------

    @property
    def m(self) -> int:
        return self.array.shape[0]

    @property
    def n(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and self.shape == other.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self):
        return hash((self.field.p, self.shape, self.array.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseMatrix(p={self.field.p}, {self.m}x{self.n})"

    # pieces ----------------------------------------------------------------

    def row(self, i: int) -> np.ndarray:
        return self.array[i].copy()

    def column(self, j: int) -> np.ndarray:
        return self.array[:, j].copy()

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "DenseMatrix":
        return DenseMatrix(self.field, self.array[np.ix_(list(rows), list(cols))])

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.field, self.array.T)

    def is_zero(self) -> bool:
        return not self.array.any()

    # arithmetic -----------------------------------------------------------

    def _mul_reduce(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod p, reduced blockwise (or through limbs when b is a
        vector) against int64 overflow."""
        p = self.field.p
        n = a.shape[1]
        step = _block_cols(p, max(n, 1))
        if step >= n:
            return (a @ b) % p
        if b.ndim == 1:
            return _limb_product(p, a, b)
        acc = np.zeros((a.shape[0],) + b.shape[1:], dtype=np.int64)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            acc = (acc + a[:, lo:hi] @ b[lo:hi]) % p
        return acc

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.field.p != other.field.p:
            raise ValueError("mixed moduli")
        if self.n != other.m:
            raise DimensionError(f"{self.shape} @ {other.shape}")
        return DenseMatrix(self.field, self._mul_reduce(self.array, other.array))

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.shape != other.shape or self.field.p != other.field.p:
            raise DimensionError("shape or modulus mismatch")
        return DenseMatrix(self.field, (self.array + other.array) % self.field.p)

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.shape != other.shape or self.field.p != other.field.p:
            raise DimensionError("shape or modulus mismatch")
        return DenseMatrix(self.field, (self.array - other.array) % self.field.p)

    def matvec(self, v: Sequence[int] | np.ndarray, meter=None) -> np.ndarray:
        """A @ v.  ``meter`` (if given) records one matrix-vector unit and
        2mn - m field operations; pass the verifier's meter only for work
        the verifier actually performs."""
        vec = np.asarray(v, dtype=np.int64)
        if vec.shape != (self.n,):
            raise DimensionError(f"matvec {self.shape} with vector of length {vec.shape}")
        if meter is not None:
            meter.count_matvec(self.m, self.n)
        return self._mul_reduce(self.array, vec)

    def vecmat(self, w: Sequence[int] | np.ndarray, meter=None) -> np.ndarray:
        """w^T A, counted as one matrix-vector unit (same cost class)."""
        vec = np.asarray(w, dtype=np.int64)
        if vec.shape != (self.m,):
            raise DimensionError(f"vecmat {self.shape} with vector of length {vec.shape}")
        if meter is not None:
            meter.count_matvec(self.n, self.m)
        return self._mul_reduce(self.array.T, vec)


def dot_mod(field: PrimeField, a: np.ndarray, b: np.ndarray) -> int:
    """Exact dot product of residue vectors."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise DimensionError("dot product length mismatch")
    n = a.shape[0]
    if n == 0:
        return 0
    if _block_cols(field.p, n) < n:
        return int(_limb_product(field.p, a, b))
    return int(a @ b) % field.p


# Permutations --------------------------------------------------------------


class Permutation:
    """A permutation pi of {0..n-1}, stored as its image list.

    As a matrix it has a 1 in column i at row pi(i).  Applied on the left it
    moves row i of the operand to row pi(i); applied on the right it makes
    column j of the result equal column pi(j) of the operand.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(v) for v in images)
        n = len(imgs)
        if sorted(imgs) != list(range(n)):
            raise ValueError("not a permutation of 0..n-1")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Permutation({list(self.images)})"

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise DimensionError("permutation sizes differ")
        return Permutation([self.images[other.images[i]] for i in range(self.n)])

    def sign(self) -> int:
        """+1 or -1 from cycle parity."""
        seen = [False] * self.n
        sign = 1
        for i in range(self.n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def matrix(self, field: PrimeField) -> DenseMatrix:
        arr = np.zeros((self.n, self.n), dtype=np.int64)
        for i, img in enumerate(self.images):
            arr[img, i] = 1
        return DenseMatrix(field, arr)

    # index-map applications (no dense multiply) ---------------------------

    def apply_to_vector(self, v: np.ndarray) -> np.ndarray:
        """Matrix action on a vector: out[pi(i)] = v[i]."""
        v = np.asarray(v, dtype=np.int64)
        out = np.empty_like(v)
        out[list(self.images)] = v
        return out

    def apply_inverse_to_vector(self, v: np.ndarray) -> np.ndarray:
        """Transpose action: out[i] = v[pi(i)]."""
        v = np.asarray(v, dtype=np.int64)
        return v[list(self.images)].copy()

    def permute_rows(self, mat: DenseMatrix) -> DenseMatrix:
        """Left multiply: row i of mat lands at row pi(i)."""
        out = np.empty_like(mat.array)
        out[list(self.images), :] = mat.array
        return DenseMatrix(mat.field, out)

    def permute_cols(self, mat: DenseMatrix) -> DenseMatrix:
        """Right multiply: column j of result is column pi(j) of mat."""
        return DenseMatrix(mat.field, mat.array[:, list(self.images)])


@dataclass(frozen=True)
class Diagonal:
    """An invertible diagonal matrix, stored as its entries."""

    field: PrimeField
    entries: tuple

    def __post_init__(self) -> None:
        vals = tuple(int(v) for v in self.entries)
        object.__setattr__(self, "entries", vals)
        for v in vals:
            if not (0 < v < self.field.p):
                raise ValueError("diagonal entries must be nonzero canonical residues")

    @property
    def n(self) -> int:
        return len(self.entries)

    def matrix(self) -> DenseMatrix:
        return DenseMatrix(self.field, np.diag(np.array(self.entries, dtype=np.int64)))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, dtype=np.int64) * np.array(self.entries, dtype=np.int64)) % self.field.p

    def product(self) -> int:
        acc = 1
        for v in self.entries:
            acc = (acc * v) % self.field.p
        return acc


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


class RankProfileMatrix:
    """An m x n 0/1 matrix with at most one 1 per row and per column.

    The positions are kept sorted by row index.  Equality is positional.
    """

    __slots__ = ("m", "n", "positions")

    def __init__(self, m: int, n: int, positions: Iterable[tuple[int, int]]):
        pos = tuple(sorted((int(i), int(j)) for i, j in positions))
        rows = [i for i, _ in pos]
        cols = [j for _, j in pos]
        if len(set(rows)) != len(pos) or len(set(cols)) != len(pos):
            raise ValueError("more than one 1 in a row or column")
        for i, j in pos:
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError("position outside matrix")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "positions", pos)

    def __setattr__(self, name, value):
        raise AttributeError("RankProfileMatrix is immutable")

    @property
    def rank(self) -> int:
        return len(self.positions)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RankProfileMatrix)
            and (self.m, self.n, self.positions) == (other.m, other.n, other.positions)
        )

    def __hash__(self):
        return hash((self.m, self.n, self.positions))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankProfileMatrix({self.m}x{self.n}, ones={list(self.positions)})"

    def to_dense(self, field: PrimeField) -> DenseMatrix:
        arr = np.zeros((self.m, self.n), dtype=np.int64)
        for i, j in self.positions:
            arr[i, j] = 1
        return DenseMatrix(field, arr)

    def row_support(self) -> tuple:
        return tuple(sorted(i for i, _ in self.positions))

    def column_support(self) -> tuple:
        return tuple(sorted(j for _, j in self.positions))


# Text format ----------------------------------------------------------------
#
# First line: "m n p".  Then m lines of n base-10 residues separated by
# single spaces.  Round-trips bit-exactly.


def dump_matrix(mat: DenseMatrix) -> str:
    lines = [f"{mat.m} {mat.n} {mat.field.p}"]
    for i in range(mat.m):
        lines.append(" ".join(str(int(v)) for v in mat.array[i]))
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> DenseMatrix:
    stream = io.StringIO(text)
    header = stream.readline().split()
    if len(header) != 3:
        raise ValueError("first line must be 'm n p'")
    m, n, p = (int(x) for x in header)
    field = PrimeField(p)
    rows = []
    for i in range(m):
        line = stream.readline()
        if not line:
            raise ValueError(f"expected {m} rows, file ended at row {i}")
        vals = [int(x) for x in line.split()]
        if len(vals) != n:
            raise ValueError(f"row {i} has {len(vals)} entries, expected {n}")
        for v in vals:
            if not (0 <= v < p):
                raise ValueError(f"entry {v} not a canonical residue mod {p}")
        rows.append(vals)
    arr = np.array(rows, dtype=np.int64).reshape(m, n)
    return DenseMatrix(field, arr)
