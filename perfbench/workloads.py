"""The three workloads: which instances one round certifies.

Each builder takes a ``full`` flag.  True gives the instances the rounds time.
False gives small instances of the same kinds, which warm the code paths up
before timing and are small enough for the brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from instances import P_BIG, P_SMALL, Builder, Instance


@dataclass(frozen=True)
class Workload:
    modulus: int
    checks: int  # times each sealed certificate is checked per round
    build: Callable[[Builder, bool], list[Instance]]


def det_large(b: Builder, full: bool) -> list[Instance]:
    """Two nonsingular n = 768 instances and one of rank n - 1."""
    n = 768 if full else 8
    return [b.square("det", n), b.square("det", n), b.square("det", n, singular=True)]


def witness_bigp(b: Builder, full: bool) -> list[Instance]:
    """Rectangular rank-deficient profile instances and tri-equiv pairs."""
    m, n, t = (256, 384, 128) if full else (8, 10, 8)
    r = 3 * m // 4
    return [
        b.profile("crp", m, n, r),
        b.profile("rrp", m, n, r),
        b.profile("rpm", m, n, r),
        b.tri_equiv("lower", t, t, 3 * t // 4),
        b.tri_equiv("upper", t, t, 3 * t // 4),
    ]


def small_mixed(b: Builder, full: bool) -> list[Instance]:
    """All 12 protocols at sizes 8..48.  Each size gets three cycles: wide
    full rank, tall rank-deficient and square rank-deficient shapes for the
    rectangular protocols, and new square instances, one of them singular,
    for det, ldup, grp and rpm-inv."""
    out = []
    for s in (8, 16, 24, 32, 40, 48) if full else (8,):
        w = s + (s // 2 if full else 2)
        for m, n, r in ((s, w, s), (w, s, 3 * s // 4), (s, s, 3 * s // 4)):
            out.append(b.freivalds(m, n, s))
            for protocol in ("rank-upper", "rank-lower", "crp", "rrp", "rpm"):
                out.append(b.profile(protocol, m, n, r))
            out.append(b.tri_equiv("lower", m, n, r))
            out.append(b.tri_equiv("upper", m, n, r))
            for protocol in ("grp", "ldup", "det", "rpm-inv"):
                out.append(b.square(protocol, s))
            out.append(b.square("det", s, singular=True))
    return out


WORKLOADS = {
    "det-large": Workload(P_SMALL, 20, det_large),
    "witness-bigp": Workload(P_BIG, 6, witness_bigp),
    "small-mixed": Workload(P_SMALL, 2, small_mixed),
}
