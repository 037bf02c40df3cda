import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankcert import matrix
from rankcert.field import PrimeField
from rankcert.matrix import (
    DenseMatrix,
    Diagonal,
    DimensionError,
    Permutation,
    MAX_DIM,
    RankProfileMatrix,
    dot_mod,
    dump_matrix,
    load_matrix,
)
from shapes import (
    column_support,
    compose,
    conjugate_by_permutations,
    is_lower_triangular,
    is_row_echelon,
    is_unit_lower_leading,
    is_upper_triangular,
    is_zero,
    pad_matrix,
    row_support,
    to_dense,
)

F7 = PrimeField(7)


def mat(rows, field=F7):
    return DenseMatrix.from_rows(field, rows)


def rand_mat(field, m, n, seed):
    return DenseMatrix.random(field, m, n, random.Random(seed))


def test_constructors_and_validation():
    z = DenseMatrix.zeros(F7, 2, 3)
    assert z.shape == (2, 3) and is_zero(z)
    i = DenseMatrix.identity(F7, 3)
    assert i @ i == i
    assert is_zero(mat([[7, 0], [0, 0]]))  # from_rows reduces for convenience
    with pytest.raises(ValueError):
        DenseMatrix(F7, np.array([[7, 0], [0, 0]], dtype=np.int64))
    with pytest.raises(ValueError):
        DenseMatrix(F7, np.array([[-1, 0], [0, 0]], dtype=np.int64))


def test_matrices_are_immutable():
    a = mat([[1, 2], [3, 4]])
    with pytest.raises(Exception):
        a.array[0, 0] = 5


def test_product_matches_python_ints():
    a = rand_mat(F7, 4, 5, 1)
    b = rand_mat(F7, 5, 3, 2)
    c = a @ b
    for i in range(4):
        for j in range(3):
            want = sum(int(a.array[i, k]) * int(b.array[k, j]) for k in range(5)) % 7
            assert int(c.array[i, j]) == want


def test_blocked_product_near_overflow_boundary():
    # p close to 2^31 forces single-column accumulation blocks
    f = PrimeField(2147483647)
    v = f.p - 1
    a = DenseMatrix(f, np.full((2, 40), v, dtype=np.int64))
    b = DenseMatrix(f, np.full((40, 2), v, dtype=np.int64))
    c = a @ b
    want = (40 * v * v) % f.p
    assert np.all(c.array == want)
    x = np.full(40, v, dtype=np.int64)
    assert dot_mod(f, x, x) == want


# dot_mod splits one operand into 16-bit halves below 2^16 entries
SPLIT_LENGTHS = (3, 2**16 - 1, 2**16)


@pytest.mark.parametrize("p", [2**31 - 1, 1753413059, 67108859])
def test_dot_mod_is_exact_on_both_sides_of_its_int64_path(p):
    """Vectors of p - 1 at the longest length whose int64 sum is exact, one
    longer, and around 2^16, where the 16-bit split ends and ``matmul_mod``
    takes over."""
    f = PrimeField(p)
    longest = (2**63 - 1) // (p - 1) ** 2
    for n in (longest, longest + 1, *SPLIT_LENGTHS):
        x = np.full(n, p - 1, dtype=np.int64)
        assert dot_mod(f, x, x) == n * (p - 1) ** 2 % p
    with pytest.raises(DimensionError):
        dot_mod(f, x, x[1:])


# 2**31 - 1 takes limbs in float64 past an inner length of 1 and in int64
# past 2; 67108859, the largest prime below 2**26, past 1 and 2047; 131071
# past 2**19 and 2**29
KERNEL_MODULI = (2**31 - 1, 67108859, 131071)
LONGEST = 6149
ENGINES = (np.float64, np.int64)


def _exact_bounds(p):
    """The kernel's exactness bounds, then bounds lowered so that its direct
    path ends at 256 terms, then so that its limb chunks hold 256 terms:
    every boundary gets tested at lengths a test can afford, and a lower
    bound is just as exact."""
    top, real = p - 1, dict(matrix._EXACT)
    limb = {d: (1 << matrix._LIMB_BITS[d]) - 1 for d in ENGINES}
    yield real
    yield {d: min(real[d], 256 * top * top + 1) for d in ENGINES}
    yield {d: min(real[d], 256 * top * limb[d] + 1) for d in ENGINES}


def _stress_residues(rng, p, shape):
    """Random residues with every other entry at p - 1, the worst case for
    the accumulators."""
    vals = rng.integers(0, p, size=shape, dtype=np.int64).reshape(-1)
    vals[::2] = p - 1
    return vals.reshape(shape)


def _kernel_lengths(p):
    """Inner lengths on both sides of each engine's last direct length and
    limb chunk, up to LONGEST."""
    top = p - 1
    bounds = []
    for d in ENGINES:
        exact = matrix._EXACT[d]
        bounds += [(exact - 1) // top**2, (exact - 1) // (top * ((1 << matrix._LIMB_BITS[d]) - 1))]
    near = {n for b in bounds if b for n in (b - 1, b, b + 1, 3 * b + 5)}
    return sorted(n for n in near | {0, 1, LONGEST} if n <= LONGEST)


def _python_product(a, b, p):
    return [
        [sum(int(u) * int(v) for u, v in zip(row, col)) % p for col in b.T] for row in a
    ]


# 268435399, the largest prime below 2^28, keeps a 128-term int64 sum exact
# and not a 129-term one; at 2^31 - 1 both lengths split into 16-bit halves
@pytest.mark.parametrize(
    "p, k", [(268435399, 128), (268435399, 129), (2**31 - 1, 8), (2**31 - 1, 2**16 - 1)]
)
def test_dot_mod_of_a_block_is_the_dot_mod_of_each_row(p, k):
    """A 2-row block near p - 1, where a k-term int64 sum past the bound
    wraps, gives the two vector calls' values, which are the dot products
    in Python integers; a block whose rows are not as long as the vector
    is refused."""
    f = PrimeField(p)
    rng = np.random.default_rng(k)
    block = p - 1 - rng.integers(0, 1000, size=(2, k))
    b = p - 1 - rng.integers(0, 1000, size=k)
    want = [sum(int(u) * int(v) for u, v in zip(row, b)) % p for row in block]
    assert dot_mod(f, block, b) == [dot_mod(f, row, b) for row in block] == want
    with pytest.raises(DimensionError):
        dot_mod(f, block, b[1:])


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_vector_products_match_python_integers_around_the_block_length(p, monkeypatch):
    f = PrimeField(p)
    rng = np.random.default_rng(p % 997)
    for bounds in _exact_bounds(p):
        monkeypatch.setattr(matrix, "_EXACT", bounds)
        for n in _kernel_lengths(p):
            x = _stress_residues(rng, p, n)
            y = _stress_residues(rng, p, n)
            assert dot_mod(f, x, y) == sum(int(u) * int(v) for u, v in zip(x, y)) % p
            a = DenseMatrix(f, _stress_residues(rng, p, (3, n)))
            want = [sum(int(u) * int(v) for u, v in zip(row, x)) % p for row in a.array]
            assert a.matvec(x).tolist() == want
            tall = DenseMatrix(f, _stress_residues(rng, p, (n, 2)))
            want_tall = [
                sum(int(u) * int(v) for u, v in zip(tall.array[:, j], x)) % p for j in range(2)
            ]
            assert tall.vecmat(x).tolist() == want_tall
            assert (a @ tall).array.tolist() == _python_product(a.array, tall.array, p), n
    for n in SPLIT_LENGTHS:
        top = np.full(n, p - 1, dtype=np.int64)
        assert dot_mod(f, top, top) == n * (p - 1) ** 2 % p


def test_matvec_vecmat_and_meter_hook():
    class Meter:
        def __init__(self):
            self.calls = []

        def count_matvec(self, m, n):
            self.calls.append((m, n))

    a = mat([[1, 2, 3], [4, 5, 6]])
    v = np.array([1, 1, 1], dtype=np.int64)
    w = np.array([1, 2], dtype=np.int64)
    meter = Meter()
    assert a.matvec(v, meter=meter).tolist() == [6, 1]
    assert a.vecmat(w, meter=meter).tolist() == [2, 5, 1]
    # vecmat reports the transposed shape so ops = 2mn - output length holds
    assert meter.calls == [(2, 3), (3, 2)]


@given(st.integers(2, 30), st.integers(0, 10 **6))
@settings(max_examples=40, deadline=None)
def test_permutation_roundtrip(n, seed):
    rng = random.Random(seed)
    images = list(range(n))
    rng.shuffle(images)
    perm = Permutation(tuple(images))
    inv = perm.inverse()
    for i in range(n):
        assert inv(perm(i)) == i
    v = np.array([rng.randrange(7) for _ in range(n)], dtype=np.int64)
    assert np.array_equal(perm.apply_inverse_to_vector(perm.apply_to_vector(v)), v)
    a = rand_mat(F7, n, n, seed + 1)
    assert perm.matrix(F7) @ a == perm.permute_rows(a)
    assert a @ perm.matrix(F7) == perm.permute_cols(a)
    assert perm.inverse().permute_rows(perm.permute_rows(a)) == a


def test_permutations_act_alike_on_transposed_inputs():
    """A transposed matrix is a view stored by columns; permuting its rows
    or columns gives what it gives on the same matrix stored by rows."""
    rng = random.Random(4)
    for m, n in ((5, 3), (2, 6), (7, 7)):
        stored = rand_mat(F7, n, m, m * n)
        view = stored.transpose()
        flat = DenseMatrix(F7, view.array)
        assert not view.array.flags.c_contiguous and flat.array.flags.c_contiguous
        rows = Permutation(rng.sample(range(m), m))
        cols = Permutation(rng.sample(range(n), n))
        assert rows.permute_rows(view) == rows.permute_rows(flat) == rows.matrix(F7) @ flat
        assert cols.permute_cols(view) == cols.permute_cols(flat) == flat @ cols.matrix(F7)


def test_permutation_sign_and_compose():
    ident = Permutation.identity(4)
    swap = Permutation((1, 0, 2, 3))
    cycle = Permutation((1, 2, 0))
    assert ident.sign() == 1
    assert swap.sign() == -1
    assert cycle.sign() == 1
    other = Permutation((0, 2, 1, 3))
    composed = compose(swap, other)
    for i in range(4):
        assert composed(i) == swap(other(i))
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_matrix_convention():
    # the matrix of p has its ones at (p(i), i)
    perm = Permutation((2, 0, 1))
    pm = perm.matrix(F7)
    for i in range(3):
        assert pm.array[perm(i), i] == 1
    assert int(pm.array.sum()) == 3


def test_diagonal_requires_invertible_entries():
    d = Diagonal(F7, (1, 3, 6))
    assert d.product() == 4
    assert d.matrix().array[1, 1] == 3
    v = np.array([1, 2, 3], dtype=np.int64)
    assert d.apply(v).tolist() == [1, 6, 4]
    with pytest.raises(ValueError):
        Diagonal(F7, (1, 0, 2))


def test_triangularity_predicates():
    low = mat([[1, 0, 0], [2, 3, 0], [4, 5, 6]])
    up = low.transpose()
    assert is_lower_triangular(low) and not is_upper_triangular(low)
    assert is_upper_triangular(up) and not is_lower_triangular(up)
    assert not is_lower_triangular(low, strict=True)
    assert is_lower_triangular(mat([[0, 0], [1, 0]]), strict=True)
    tall = mat([[1, 0], [2, 1], [3, 4]])
    assert is_unit_lower_leading(tall, 2)
    assert not is_unit_lower_leading(mat([[2, 0], [1, 1]]), 2)


def test_row_echelon_predicate():
    assert is_row_echelon(mat([[1, 2, 0], [0, 0, 3]]))
    assert is_row_echelon(mat([[0, 0], [0, 0]]))
    assert not is_row_echelon(mat([[0, 1], [1, 0]]))
    assert not is_row_echelon(mat([[0, 0, 3], [1, 2, 0]]))  # zero row not trailing


def test_pad_and_conjugate():
    a = mat([[1, 2], [3, 4], [5, 6]])
    padded = pad_matrix(a, 3, 3)
    assert padded.array[:, 2].tolist() == [0, 0, 0]
    eye_tail = pad_matrix(mat([[2]]), 3, 3, identity_tail=True)
    assert eye_tail.array.tolist() == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    p = Permutation((1, 2, 0))
    q = p.inverse()
    b = rand_mat(F7, 3, 3, 9)
    assert conjugate_by_permutations(p, b, q) == p.matrix(F7) @ b @ q.matrix(F7)


def test_rank_profile_matrix_container():
    rpm = RankProfileMatrix(3, 4, ((2, 1), (0, 2)))
    assert rpm.positions == ((0, 2), (2, 1))  # sorted
    assert rpm.rank == 2
    assert row_support(rpm) == (0, 2)
    assert column_support(rpm) == (1, 2)
    dense = to_dense(rpm, F7)
    assert dense.array[0, 2] == 1 and dense.array[2, 1] == 1
    assert int(dense.array.sum()) == 2
    with pytest.raises(ValueError):
        RankProfileMatrix(3, 4, ((0, 1), (0, 2)))  # two ones in one row


def test_text_roundtrip_and_validation():
    a = rand_mat(PrimeField(131071), 3, 5, 4)
    text = dump_matrix(a)
    again = load_matrix(text)
    assert again == a
    with pytest.raises(ValueError):
        load_matrix("2 2 7\n1 2\n3 9\n")  # residue out of range
    with pytest.raises(ValueError):
        load_matrix("2 2 7\n1 2\n3\n")  # short row


@pytest.mark.parametrize("tail", ["4 5\n", "\n4 5\n", "x", "  \n\t7"])
def test_load_matrix_refuses_content_past_the_declared_rows(tail):
    with pytest.raises(ValueError, match="after the 2 declared rows"):
        load_matrix("2 2 101\n1 2\n3 4\n" + tail)


def test_load_matrix_allows_blank_lines_past_the_declared_rows():
    want = DenseMatrix(PrimeField(101), np.array([[1, 2], [3, 4]], dtype=np.int64))
    assert load_matrix("2 2 101\n1 2\n3 4\n\n  \n") == want
    assert load_matrix("2 2 101\n1 2\n3 4") == want


@pytest.mark.parametrize("dims", ["0 3", "3 0", f"1 {MAX_DIM + 1}"])
def test_load_matrix_refuses_sizes_no_statement_binds(dims):
    with pytest.raises(ValueError, match="cannot bind"):
        load_matrix(f"{dims} 101\n\n\n\n")
