"""Dense matrices over a prime field, permutations, and the text format.

Entries are canonical residues held in int64 numpy arrays.  Every product
of a matrix with a matrix or a vector goes through one exact kernel,
`matmul_mod`; a dot product of a vector with a vector or with each row of
a small block, `dot_mod`, makes its own int64 product and 16-bit split
under one exactness rule and reaches `matmul_mod` only past 2**16 entries.
A product of two matrices runs in float64 BLAS, which holds every integer
up to 2**53 exactly: when k * (p - 1)**2 < 2**53 for the inner length k,
every partial sum is such an integer, so one float64 product, converted
to int64 and reduced with `np.remainder`, is exact.
A product with a vector side (one row or one column) gains nothing from
BLAS that would pay for converting the matrix, so it runs in int64, exact
while k * (p - 1)**2 < 2**63.

Past that bound the operand with fewer entries is split into limbs, 11
bits wide in float64 and 16 in int64: each term is then below (p - 1) *
2**11 or (p - 1) * 2**16, the inner dimension is cut into chunks whose
sums stay below the bound (at least 2**11 terms for every p < 2**31), and
each limb's product is reduced after every chunk and folded in by Horner's
rule.  At p = 2**31 - 1 a matrix product with an inner length up to 2049
takes three float64 products.
That keeps the kernel exact for every p < 2**31.

Matrices are immutable at the API boundary: the backing array is marked
read-only and every operation returns a fresh matrix.  The public
constructor copies its array and checks that every entry is a residue;
arrays the library has just computed and reduced itself are wrapped as
they are, by `DenseMatrix._wrap`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .field import PrimeField


class DimensionError(ValueError):
    """Operand shapes do not conform."""


# float64 holds every integer up to 2**53 exactly, int64 every one below 2**63
_EXACT = {np.float64: 2**53, np.int64: 2**63}
# limb widths that leave chunks of 2**11 terms or more for every p < 2**31
_LIMB_BITS = {np.float64: 11, np.int64: 16}


# a @ b by the number of dimensions of a and of b
_SUBSCRIPTS = {(2, 1): "ij,j->i", (1, 2): "j,jk->k", (2, 2): "ij,jk->ik", (1, 1): "j,j->"}


def _product(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """a @ b of int64 arrays, computed in dtype, as int64.  In int64 it is
    an ``einsum``: ``@`` copies an unaligned matrix, as ``parse_header``
    returns, and walks a matrix by columns when a vector is on its left."""
    if dtype is np.int64:
        return np.einsum(_SUBSCRIPTS[a.ndim, b.ndim], a, b)
    return np.asarray(a.astype(dtype) @ b.astype(dtype)).astype(np.int64)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p for int64 residue arrays (matrices or vectors, as
    numpy's ``@`` takes them), as an int64 array."""
    k, top = a.shape[-1], p - 1
    vector = a.ndim == 1 or b.ndim == 1 or a.shape[0] == 1 or b.shape[1] == 1
    dtype = np.int64 if vector else np.float64
    exact = _EXACT[dtype]
    if k * top * top < exact:
        return _product(a, b, dtype) % p
    bits = _LIMB_BITS[dtype]
    mask = (1 << bits) - 1
    chunk = (exact - 1) // (top * mask)
    split_a = a.size < b.size
    out = None
    for shift in reversed(range(0, top.bit_length(), bits)):
        limb = ((a if split_a else b) >> shift) & mask
        x, y = (limb, b) if split_a else (a, limb)
        part = 0
        for s in range(0, k, chunk):
            part = part + _product(x[..., s : s + chunk], y[s : s + chunk], dtype) % p
        out = part % p if out is None else ((out << bits) + part) % p
    return out


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
    def _wrap(cls, field: PrimeField, arr: np.ndarray) -> "DenseMatrix":
        """The matrix over ``arr`` itself, with no copy and no range check:
        only for a 2-d int64 array of residues the library has just
        computed, a view of another matrix's array, or a view of
        certificate bytes ``parse_header`` has range-checked."""
        arr.flags.writeable = False
        mat = object.__new__(cls)
        object.__setattr__(mat, "field", field)
        object.__setattr__(mat, "array", arr)
        return mat

    @classmethod
    def zeros(cls, field: PrimeField, m: int, n: int) -> "DenseMatrix":
        return cls._wrap(field, np.zeros((m, n), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "DenseMatrix":
        return cls._wrap(field, np.eye(n, dtype=np.int64))

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
        return cls._wrap(field, arr)

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

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "DenseMatrix":
        return DenseMatrix._wrap(self.field, self.array[np.ix_(list(rows), list(cols))])

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix._wrap(self.field, self.array.T)

    # arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.field.p != other.field.p:
            raise ValueError("mixed moduli")
        if self.n != other.m:
            raise DimensionError(f"{self.shape} @ {other.shape}")
        return DenseMatrix._wrap(self.field, matmul_mod(self.array, other.array, self.field.p))

    def matvec(self, v: Sequence[int] | np.ndarray, meter=None) -> np.ndarray:
        """A @ v.  ``meter`` (if given) records one matrix-vector unit and
        2mn - m field operations; pass the verifier's meter only for work
        the verifier actually performs."""
        vec = np.asarray(v, dtype=np.int64)
        if vec.shape != (self.n,):
            raise DimensionError(f"matvec {self.shape} with vector of length {vec.shape}")
        if meter is not None:
            meter.count_matvec(self.m, self.n)
        return matmul_mod(self.array, vec, self.field.p)

    def vecmat(self, w: Sequence[int] | np.ndarray, meter=None) -> np.ndarray:
        """w^T A, counted as one matrix-vector unit (same cost class)."""
        vec = np.asarray(w, dtype=np.int64)
        if vec.shape != (self.m,):
            raise DimensionError(f"vecmat {self.shape} with vector of length {vec.shape}")
        if meter is not None:
            meter.count_matvec(self.n, self.m)
        return matmul_mod(vec, self.array, self.field.p)


def dot_mod(field: PrimeField, a: np.ndarray, b: np.ndarray) -> int | list[int]:
    """Exact dot product of residue vector ``b`` with a vector ``a``, as an
    int, or with each row of a block ``a``, as a list of ints.

    While each int64 sum is exact, len(b) . (p - 1)^2 below the int64
    bound of ``_EXACT``, one plain product serves all rows.  Past it, a
    splits into its high and low 16 bits: with p < 2^31 each term of
    either half is below 2^47, so the two sums stay exact while len(b) .
    2^47 is below the same bound (under 2^16 entries).  Longer vectors go
    through `matmul_mod`."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[-1:] != b.shape:
        raise DimensionError("dot product length mismatch")
    p, exact = field.p, _EXACT[np.int64]
    if len(b) * (p - 1) ** 2 < exact:  # the int64 sum is exact
        if a.ndim == 1:
            return int(a @ b) % p
        return [x % p for x in (a @ b).tolist()]
    if len(b) << 47 < exact:
        hi, lo = (a >> 16) @ b, (a & 0xFFFF) @ b
        if a.ndim == 1:
            return (int(hi) % p * 65536 + int(lo)) % p
        return [(h % p * 65536 + l) % p for h, l in zip(hi.tolist(), lo.tolist())]
    return matmul_mod(a, b, p).tolist()


# Permutations --------------------------------------------------------------


class Permutation:
    """A permutation pi of {0..n-1}, stored as its image list.

    As a matrix it has a 1 in column i at row pi(i).  Applied on the left it
    moves row i of the operand to row pi(i); applied on the right it makes
    column j of the result equal column pi(j) of the operand.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(map(int, images))
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
        return DenseMatrix._wrap(field, arr)

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
        """Left multiply: row i of mat lands at row pi(i), gathered through
        the inverse images."""
        inv = np.empty(self.n, dtype=np.intp)
        inv[list(self.images)] = np.arange(self.n)
        return DenseMatrix._wrap(mat.field, np.take(mat.array, inv, axis=0))

    def permute_cols(self, mat: DenseMatrix) -> DenseMatrix:
        """Right multiply: column j of result is column pi(j) of mat."""
        return DenseMatrix._wrap(mat.field, np.take(mat.array, self.images, axis=1))


@dataclass(frozen=True)
class Diagonal:
    """An invertible diagonal matrix, stored as its entries."""

    field: PrimeField
    entries: tuple

    def __post_init__(self) -> None:
        vals = tuple(map(int, self.entries))
        object.__setattr__(self, "entries", vals)
        if vals and (min(vals) <= 0 or max(vals) >= self.field.p):
            raise ValueError("diagonal entries must be nonzero canonical residues")

    @property
    def n(self) -> int:
        return len(self.entries)

    def matrix(self) -> DenseMatrix:
        return DenseMatrix._wrap(self.field, np.diag(np.array(self.entries, dtype=np.int64)))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, dtype=np.int64) * np.array(self.entries, dtype=np.int64)) % self.field.p

    def product(self) -> int:
        acc = 1
        for v in self.entries:
            acc = (acc * v) % self.field.p
        return acc


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


# Text format ----------------------------------------------------------------
#
# First line: "m n p".  Then m lines of n base-10 residues separated by
# single spaces.  Round-trips bit-exactly.

# the largest row or column count of a matrix file or a certificate
MAX_DIM = 1 << 20


def check_dims(m: int, n: int) -> None:
    """Refuse an empty matrix or one past ``MAX_DIM``: no statement binds it."""
    if not (1 <= m <= MAX_DIM and 1 <= n <= MAX_DIM):
        raise ValueError(f"cannot bind a {m}x{n} matrix (sizes 1 to {MAX_DIM})")


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
    check_dims(m, n)
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
    if stream.read().strip():
        raise ValueError(f"content after the {m} declared rows")
    arr = np.array(rows, dtype=np.int64).reshape(m, n)
    return DenseMatrix(field, arr)
