"""Generic rank profile: every leading principal minor is nonzero.

The prover holds A = L.U from elimination without pivoting, which
exists exactly when the profile is generic.  Rounds run from the last
coordinate down to the first; in each round the prover answers two
fresh challenge entries with partial products against U and one weight
entry with a partial product against L.  Descending order means each
answer only needs the challenge suffix already revealed, mirroring the
triangularity being certified.  The verifier does one vector-matrix
product and four dot products at the end.

LDUP runs this pair-then-weight stream on the unit factors of A.P^-1,
one coordinate later.  Its schedule, prover answers, verifier arrays and
closing identity are written once here, for GRP, LDUP, the determinant
and the invertible rank profile case.
"""

from __future__ import annotations

import numpy as np

from ..elimination import pluq_rpm
from ..field import PrimeField
from ..matrix import DenseMatrix, dot_mod
from .base import (
    Block,
    MatrixVerifier,
    ProverMachine,
    Reject,
    Step,
    VerifierMachine,
    WitnessUnavailable,
)


def _kinds(protocol: str) -> tuple[str, ...]:
    """The challenge pair, its answer, the weight and its answer."""
    return tuple(
        f"{protocol}-{k}" for k in ("challenge-pair", "response-pair", "weight", "weight-response")
    )


def pair_then_weight(protocol: str, indices: range) -> tuple[Block]:
    """The stream's schedule: for each index, a challenge pair answered by
    a pair, then one weight answered by one element."""
    pair, pair_ans, weight, weight_ans = _kinds(protocol)
    return (Block(indices, (Step(pair, 2, pair_ans), Step(weight, 1, weight_ans))),)


def stream_answers(
    protocol: str, field: PrimeField, low: np.ndarray, up: np.ndarray, scales: list, shift: int
) -> tuple[dict, dict]:
    """The arrays and answers of the stream (see `ProverMachine._answer`)
    on the factors ``low`` and ``up``: round i answers its pair with row
    i - shift of ``up`` times ``scales[i - shift]`` against the challenge
    suffix from i, and its weight with column i - shift of ``low`` against
    the weight suffix from i."""
    p = field.p
    pair, _, weight, _ = _kinds(protocol)
    drawn = np.zeros((3, len(low)), dtype=np.int64)

    def answer_pair(i):
        scale = scales[i - shift]
        return [x * scale % p for x in dot_mod(field, drawn[:2, i:], up[i - shift, i:])]

    return (
        {pair: (drawn[0], drawn[1]), weight: (drawn[2],)},
        {
            pair: answer_pair,
            weight: lambda i: (dot_mod(field, drawn[2, i:], low[i:, i - shift]),),
        },
    )


def stream_layout(protocol: str, n: int, shift: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """The verifier's rows of the stream and its arrays (see
    `VerifierMachine._ask`): the challenges u, v and w, then the answers
    x, y and z.  The answer to round i is coordinate i - shift, so it is
    recorded at i in a row that starts ``shift`` coordinates early; the
    answer rows returned are views from coordinate 0."""
    drawn = np.zeros((3, n), dtype=np.int64)
    early = np.zeros((3, n + shift), dtype=np.int64)
    pair, pair_ans, weight, weight_ans = _kinds(protocol)
    arrays = {
        pair: (drawn[0], drawn[1]),
        pair_ans: (early[0], early[1]),
        weight: (drawn[2],),
        weight_ans: (early[2],),
    }
    return drawn, early[:, shift:], arrays


def pairs_hold(
    verifier: VerifierMachine, xs: np.ndarray, z: np.ndarray, us: np.ndarray, s: np.ndarray
) -> bool:
    """The stream's closing identity, z . x == s . u for each row x of
    ``xs`` and the row u of ``us`` in its place, charged to the verifier
    as one `count_dot` of their length per dot product."""
    for _ in range(2 * len(xs)):
        verifier.meter.count_dot(len(z))
    field = verifier.sample_set.field
    return dot_mod(field, xs, z) == dot_mod(field, us, s)


def grp_rounds(n: int) -> tuple[Block]:
    """Pairs and weights from the last coordinate down to the first."""
    return pair_then_weight("grp", range(n - 1, -1, -1))


class GrpProver(ProverMachine):
    """``factors`` is (L, U) with A = L.U; without it they are read off a
    `pluq_rpm` of A whose rank profile matrix is the identity."""

    def __init__(
        self,
        a: DenseMatrix,
        *,
        factors: tuple[DenseMatrix, DenseMatrix] | None = None,
    ):
        super().__init__()
        if factors is None:
            fact = pluq_rpm(a)
            if fact.pivot_cols() != tuple(range(a.n)):
                raise WitnessUnavailable(
                    "a leading principal minor vanishes; nothing to certify"
                )
            factors = (fact.lower, fact.upper)
        low, up = factors[0].array, factors[1].array
        self.n = a.n
        self.answers = stream_answers("grp", a.field, low, up, [1] * a.n, 0)

    def script(self):
        yield from self._answer(grp_rounds(self.n), *self.answers)


class GrpVerifier(MatrixVerifier):
    def script(self):
        drawn, answers, arrays = stream_layout("grp", self.a.n, 0)
        yield from self._ask(grp_rounds(self.a.n), arrays)
        t = self.a.vecmat(drawn[2], meter=self.meter)
        if not pairs_hold(self, answers[:2], answers[2], drawn[:2], t):
            raise Reject("final-check")
        return True
