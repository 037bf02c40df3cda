"""What the stream provers send, driven round by round over random
challenges, and what they should send by definition: the crp stream's
gamma from the two solves of `solve_pivot_block`, and the tri-equiv
witness as the identity plus `solve_leading_pivots`.  Products are taken
in Python integers."""

import numpy as np

from rankcert.elimination import pluq_rpm, solve_leading_pivots, solve_pivot_block
from rankcert.protocols.base import Message, field_part, rounds
from rankcert.protocols.equivalence import tri_rounds


def prefix_rhs(a, cols, rows, v):
    """The crp stream's right-hand side on the given rows: column j is the
    sum of A . diag(v)'s columns left of claimed column j + 1 (left of n
    for the last)."""
    p = a.field.p
    bounds = list(cols[1:]) + [a.n]
    weighted = a.array[list(rows)] * v % p
    return np.array([weighted[:, :b].sum(axis=1) % p for b in bounds], dtype=np.int64).T


def gamma_by_definition(a, cols, fact, v):
    """gamma with the two solves of `solve_pivot_block` on the prefix sums
    of A[rows] . diag(v), ``fact`` factoring A or A[:, cols]."""
    r = len(cols)
    gamma = np.zeros((r, r + 1), dtype=np.int64)
    if r:
        rhs = prefix_rhs(a, cols, fact.pivot_rows(), v)
        gamma[:, 1:] = solve_pivot_block(fact, rhs, np.arange(1, r + 1))[fact.column_order()]
    return gamma


def _product(t, x, p):
    return [int(sum(int(e) * int(c) for e, c in zip(row, x)) % p) for row in t]


def _challenges(p, k, rng):
    """k challenge entries, p - 1 among them, so sums run at their widest."""
    return [rng.choice([p - 1, rng.randrange(p)]) for _ in range(k)]


def crp_answers(prover, v, xs):
    """What a crp stream prover sends after the mask v when x_r, ..., x_1
    of ``xs`` come one per round, listed as y_0, ..., y_(r-1)."""
    prover.receive(Message("verifier", "crp-mask", None, (field_part(v),)))
    r = len(xs) - 1
    ys = [None] * r
    for j in range(r, 0, -1):
        prover.receive(Message("verifier", "crp-x", j, (field_part([xs[j]]),)))
        msg = prover.next_message()
        assert (msg.kind, msg.index) == ("crp-y", j - 1)
        (ys[j - 1],) = msg.parts[0].values
    assert prover.next_message() is None
    return ys


def assert_streams_gamma(prover, gamma, v, rng):
    """The prover answers each round with gamma's row times x, for x with
    an x_0 that never leaves the verifier."""
    p = prover.field.p
    xs = _challenges(p, len(gamma) + 1, rng)
    assert crp_answers(prover, v, xs) == _product(gamma, xs, p)


def tri_witness(a, b, variant):
    """The unit triangular T with A.T = B by definition: the identity plus
    each B_j - A_j solved on the pivots of one elimination of A (columns
    reversed for lower) that lie left of j in that order."""
    n, p = a.n, a.field.p
    order = np.arange(n) if variant == "upper" else np.arange(n)[::-1]
    fact = pluq_rpm(a.submatrix(range(a.m), order))
    counts = np.searchsorted(np.sort(fact.pivot_cols()), order)
    coeffs = solve_leading_pivots(fact, (b.array - a.array) % p, counts)
    return coeffs[order] + np.eye(n, dtype=np.int64)


def tri_answers(prover, n, variant, xs):
    """What a tri-equiv prover sends when x comes one entry per round, in
    its schedule's order; listed by column."""
    ys = [None] * n
    for kind, i, _, answer, j in rounds(tri_rounds(n, variant)):
        prover.receive(Message("verifier", kind, i, (field_part([xs[i]]),)))
        msg = prover.next_message()
        assert (msg.kind, msg.index) == (answer, j)
        (ys[j],) = msg.parts[0].values
    assert prover.next_message() is None
    return ys


def assert_streams_witness(prover, a, b, variant, rng):
    p = a.field.p
    xs = _challenges(p, a.n, rng)
    want = _product(tri_witness(a, b, variant), xs, p)
    assert tri_answers(prover, a.n, variant, xs) == want
