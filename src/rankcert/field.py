"""Prime field scalars and challenge sample sets.

Residues are plain Python ints in [0, p).  Bulk linear algebra keeps raw
residues in numpy arrays (see ``rankcert.matrix``) and goes through
``PrimeField``'s scalar methods only at pivots and dot-product tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on bases 2, 3, 5 and 7, exact for every
    p < 3,215,031,751 (Jaeschke, Math. Comp. 1993), so for every modulus
    this field allows."""
    if p < 11:
        return p in (2, 3, 5, 7)
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# big enough for soundness demos, small enough that a laptop brute-forces
# nothing; also a Mersenne prime, which makes the examples easy to eyeball
DEFAULT_MODULUS = 131071


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic mod a prime p, 2 <= p < 2**31.

    The upper bound keeps any product of two canonical residues inside a
    signed 64-bit integer, which the matrix layer relies on.
    """

    p: int

    def __post_init__(self) -> None:
        if not (2 <= self.p < 2**31):
            raise ValueError(f"modulus must satisfy 2 <= p < 2**31, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    # scalar ops on raw residues ------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (self.p - a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ValueError("inverse of zero")
        return pow(a, -1, self.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrimeField({self.p})"


# Challenge sampling -------------------------------------------------------

DrawBits = Callable[[], int]
"""Source of independent uniform 64-bit integers."""


@dataclass(frozen=True)
class SampleSet:
    """A subset of the field to draw challenges from: all residues minus
    an exclusion set.  ``star()`` removes zero (written S* elsewhere)."""

    field: PrimeField
    excluded: frozenset = dc_field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for v in self.excluded:
            if not (0 <= v < self.field.p):
                raise ValueError(f"excluded value {v} outside field")
        if self.size < 1:
            raise ValueError("sample set is empty")
        object.__setattr__(self, "_skip", sorted(self.excluded))
        object.__setattr__(self, "k", self.size)
        object.__setattr__(self, "limit", (2**64 // self.k) * self.k)

    @property
    def size(self) -> int:
        return self.field.p - len(self.excluded)

    def star(self) -> "SampleSet":
        return self.without(0)

    def without(self, *values: int) -> "SampleSet":
        extra = {v % self.field.p for v in values}
        return SampleSet(self.field, self.excluded | frozenset(extra))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.field.p and v not in self.excluded

    def bounds(self, forbid: Sequence[int] = ()) -> tuple[list[int], int, int]:
        """``(skip, k, limit)`` of one draw: the excluded residues in
        increasing order, the k residues left, and the largest multiple of
        k up to 2^64.  A 64-bit chunk u below ``limit`` draws
        ``nth(u % k, skip)``; any other chunk is rejected."""
        if not forbid:
            return self._skip, self.k, self.limit
        p = self.field.p
        if len(forbid) == 1 and not self._skip:  # as in LDUP: no set to merge
            skip = [forbid[0] % p]
        else:
            skip = sorted(self.excluded | {v % p for v in forbid})
        k = p - len(skip)
        if k < 1:
            raise ValueError("every residue excluded from draw")
        return skip, k, (2**64 // k) * k

    @staticmethod
    def nth(idx: int, skip: list[int]) -> int:
        """The idx-th residue in increasing order that is not in ``skip``."""
        v = idx
        for e in skip:
            if e <= v:
                v += 1
            else:
                break
        return v

    def draw(self, bits: DrawBits, forbid: Sequence[int] = ()) -> int:
        """Uniform draw via rejection sampling on 64-bit chunks.

        ``forbid`` adds per-draw exclusions (already-canonical residues).
        The same routine serves seeded interactive runs and hash-derived
        non-interactive challenges, so transcripts replay bit-exactly.
        """
        skip, k, limit = self.bounds(forbid)
        while True:
            u = bits()
            if u < limit:
                return self.nth(u % k, skip)
