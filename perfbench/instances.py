"""Seeded inputs whose answers are known from how they were built.

Every principal matrix is A = L.R.U over Z_p:

- R is an m x n 0/1 matrix with at most one 1 per row and per column; it is
  the rank profile matrix the certificates must report;
- L is a random unit lower triangular m x m matrix;
- U is a random upper triangular n x n matrix with a nonzero diagonal.

Multiplying by L on the left and by U on the right keeps the rank of every
leading submatrix, so the rank, the column and row rank profiles and the
rank profile matrix of A are those of R.  When R is a permutation,
det(A) = sign(R) . prod(diag U).  Tri-equiv companions are B = A.T with T
random unit triangular, Freivalds instances bind C = A.B.

Products are formed here with float64 BLAS, never with the library's own
matrix product: a k-term dot product of residues is exact in float64 while
k (p-1)^2 < 2^53; above that the operands are split into 16-bit limbs, whose
k-term partial sums stay below k 2^32 < 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rankcert.field import PrimeField
from rankcert.matrix import DenseMatrix, Permutation

P_SMALL = 131071  # 2^17 - 1: float64 products are exact without limbs
P_BIG = 2**31 - 1  # the largest prime the field allows


def mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p for int64 arrays of residues."""
    k = a.shape[1]

    def exact(x, y):
        return (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64) % p

    if k * (p - 1) ** 2 < 2**53:
        return exact(a, b)
    if k >= 2**21:
        raise ValueError("inner dimension too large for 16-bit limbs")
    a_hi, a_lo = np.divmod(a, 1 << 16)
    b_hi, b_lo = np.divmod(b, 1 << 16)
    hi = exact(a_hi, b_hi)
    mid = (exact(a_hi, b_lo) + exact(a_lo, b_hi)) % p
    lo = exact(a_lo, b_lo)
    return (hi * ((1 << 32) % p) % p + mid * ((1 << 16) % p) % p + lo) % p


@dataclass(frozen=True)
class Instance:
    """One statement to certify, with the answer and costs it must produce.

    ``answer`` is compared with ``normalise(protocol, value)``; ``comm`` and
    ``matvecs`` are the paper's communication and verifier matrix-vector
    counts for this shape.
    """

    protocol: str
    matrices: tuple[DenseMatrix, ...]
    answer: object
    comm: int
    matvecs: int
    challenge_seed: int


def normalise(protocol: str, value) -> object:
    """Certified value as plain ints, comparable with ``Instance.answer``."""
    if protocol == "ldup":
        perm, diag = value
        p = diag.field.p
        return perm.images, diag.product() * perm.sign() % p
    if protocol == "rpm-inv":
        return value.images
    if protocol == "rpm":
        return value.positions
    if protocol in ("rank-lower", "crp", "rrp"):
        return tuple(int(c) for c in value)
    if protocol in ("rank-upper", "det"):
        return int(value)
    return value


class Builder:
    """Draws every random choice from one seeded generator."""

    def __init__(self, seed: int, p: int):
        self.rng = np.random.default_rng(seed)
        self.field = PrimeField(p)
        self.p = p

    def _residues(self, *shape) -> np.ndarray:
        return self.rng.integers(0, self.p, size=shape, dtype=np.int64)

    def unit_lower(self, n: int) -> np.ndarray:
        return np.tril(self._residues(n, n), -1) + np.eye(n, dtype=np.int64)

    def upper(self, n: int) -> np.ndarray:
        diag = self.rng.integers(1, self.p, size=n, dtype=np.int64)
        return np.triu(self._residues(n, n), 1) + np.diag(diag)

    def positions(self, m: int, n: int, r: int) -> tuple[tuple[int, int], ...]:
        """r ones on random rows and columns, paired at random, so the
        rank profile matrix is in general not monotone."""
        rows = self.rng.choice(m, size=r, replace=False)
        cols = self.rng.choice(n, size=r, replace=False)
        return tuple(sorted((int(i), int(j)) for i, j in zip(rows, cols)))

    def lru(self, m: int, n: int, pos) -> tuple[np.ndarray, np.ndarray]:
        """A = L.R.U and the diagonal of U."""
        u = self.upper(n)
        ru = np.zeros((m, n), dtype=np.int64)
        for i, j in pos:
            ru[i] = u[j]
        return mulmod(self.unit_lower(m), ru, self.p), np.diag(u).copy()

    def _instance(self, protocol, mats, answer, comm, matvecs) -> Instance:
        seed = int(self.rng.integers(0, 2**63))
        mats = tuple(DenseMatrix(self.field, x) for x in mats)
        return Instance(protocol, mats, answer, comm, matvecs, seed)

    # one method per protocol ------------------------------------------------

    def profile(self, protocol: str, m: int, n: int, r: int) -> Instance:
        """rank-upper, rank-lower, crp, rrp or rpm on an m x n rank-r matrix."""
        pos = self.positions(m, n, r)
        a, _ = self.lru(m, n, pos)
        crp = tuple(sorted(j for _, j in pos))
        answer, comm, matvecs = {
            "rank-upper": (r, m + n + 1, 2),
            "rank-lower": (crp, m + 2 * r, 1),
            "crp": (crp, m + n + 4 * r, 2),
            "rrp": (tuple(sorted(i for i, _ in pos)), m + n + 4 * r, 2),
            # the README's 3n + 17r - 6 is the square case of this row
            "rpm": (pos, 2 * m + n + 17 * r - 6, 4),
        }[protocol]
        return self._instance(protocol, (a,), answer, comm, matvecs)

    def square(self, protocol: str, n: int, *, singular: bool = False) -> Instance:
        """det, ldup, rpm-inv or grp on an n x n matrix (grp uses R = I)."""
        if protocol == "grp":
            pos = tuple((i, i) for i in range(n))
        else:
            perm = self.rng.permutation(n)
            pos = tuple(sorted((int(perm[j]), j) for j in range(n)))
            if singular:
                drop = int(self.rng.integers(n))
                pos = pos[:drop] + pos[drop + 1 :]
        a, diag = self.lru(n, n, pos)
        if singular:
            assert protocol == "det"
            return self._instance("det", (a,), 0, 2 * n + 2, 2)
        # images[j] = i for each one at (i, j): the permutation the protocols commit to
        images = [0] * n
        for i, j in pos:
            images[j] = i
        images = tuple(images)
        det = Permutation(images).sign() % self.p
        for d in diag:
            det = det * int(d) % self.p
        answer, comm, matvecs = {
            "grp": (True, 6 * n, 1),
            "ldup": ((images, det), 8 * n - 6, 1),
            "det": (det, 8 * n - 5, 1),
            "rpm-inv": (images, 10 * n - 6, 1),
        }[protocol]
        return self._instance(protocol, (a,), answer, comm, matvecs)

    def tri_equiv(self, variant: str, m: int, n: int, r: int) -> Instance:
        """B = A.T for a random unit triangular T and a rank-r A."""
        a, _ = self.lru(m, n, self.positions(m, n, r))
        t = self.unit_lower(n)
        if variant == "upper":
            t = t.T.copy()
        b = mulmod(a, t, self.p)
        return self._instance(f"tri-equiv-{variant}", (a, b), True, 2 * n, 2)

    def freivalds(self, m: int, k: int, n: int) -> Instance:
        a, b = self._residues(m, k), self._residues(k, n)
        return self._instance("freivalds", (a, b, mulmod(a, b, self.p)), True, 0, 3)
