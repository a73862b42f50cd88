from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stablext import exactlin
from stablext.exactlin import (
    GF, QQ, FieldMismatch, Matrix, combine, kernel_basis, quotient_reps, rank,
    rref, solve,
)

F2 = GF(2)
F3 = GF(3)
F65521 = GF(65521)


def is_reduced_echelon(R, pivots):
    """Independent check of the rref contract (no elimination reuse)."""
    one, zero = R.field.of(1), R.field.of(0)
    last = -1
    for i, c in enumerate(pivots):
        if c <= last:
            return False
        last = c
        if R[i, c] != one:
            return False
        for r in range(R.rows):
            if r != i and R[r, c] != zero:
                return False
        for j in range(c):
            if R[i, j] != zero and j not in pivots[:i]:
                return False
    for r in range(len(pivots), R.rows):
        if any(R[r, j] != zero for j in range(R.cols)):
            return False
    return True


def same_row_space(A, B):
    ra, rb = rank(A), rank(B)
    return ra == rb == rank(A.vstack(B))


def test_rref_identity():
    I = Matrix.identity(QQ, 3)
    R, pivots = rref(I)
    assert R == I and pivots == [0, 1, 2]


def test_rref_zero():
    Z = Matrix.zeros(QQ, 2, 4)
    R, pivots = rref(Z)
    assert R == Z and pivots == []


def test_rref_rank_one_rational():
    A = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    R, pivots = rref(A)
    assert R == Matrix.from_rows(QQ, [[1, 2], [0, 0]])
    assert pivots == [0]
    # independent verification: echelon axioms + row-space preservation
    assert is_reduced_echelon(R, pivots)
    assert same_row_space(A, R)


def test_rref_field_mismatch():
    A = Matrix.from_rows(QQ, [[1]])
    B = Matrix.from_rows(F2, [[1]])
    with pytest.raises(FieldMismatch):
        A * B


def test_kernel_identity_empty():
    K = kernel_basis(Matrix.identity(F3, 4))
    assert K.cols == 0 and K.rows == 4


def test_kernel_zero_map():
    K = kernel_basis(Matrix.zeros(QQ, 2, 3))
    assert K == Matrix.identity(QQ, 3)


def test_kernel_f2_line():
    A = Matrix.from_rows(F2, [[1, 1]])
    K = kernel_basis(A)
    assert K == Matrix.from_rows(F2, [[1], [1]])
    # exhaustive oracle over F_2^2
    in_kernel = [v for v in product([0, 1], repeat=2)
                 if (v[0] + v[1]) % 2 == 0]
    assert len(in_kernel) == 2  # {00, 11}: a 1-dim space
    assert K.cols == 1


def test_solve_identity():
    b = Matrix.column(QQ, [3, Fraction(1, 2)])
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_inconsistent():
    A = Matrix.zeros(QQ, 2, 2)
    assert solve(A, Matrix.column(QQ, [1, 0])) is None


def test_solve_scalar():
    x = solve(Matrix.from_rows(QQ, [[2]]), Matrix.column(QQ, [1]))
    assert x == Matrix.column(QQ, [Fraction(1, 2)])
    # back-substitution check
    assert Matrix.from_rows(QQ, [[2]]) * x == Matrix.column(QQ, [1])


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(Matrix.zeros(QQ, 2, 2), Matrix.column(QQ, [1, 2, 3]))


def test_quotient_full_space():
    reps, proj = quotient_reps(3, Matrix.identity(QQ, 3))
    assert reps.cols == 0 and proj.rows == 0


def test_quotient_zero_subspace():
    reps, proj = quotient_reps(2, Matrix.zeros(QQ, 2, 0))
    assert reps == Matrix.identity(QQ, 2)
    assert proj == Matrix.identity(QQ, 2)


def test_quotient_f2_diagonal():
    sub = Matrix.from_rows(F2, [[1], [1]])
    reps, proj = quotient_reps(2, sub)
    assert reps.cols == 1
    e10 = Matrix.column(F2, [1, 0])
    e01 = Matrix.column(F2, [0, 1])
    assert proj * e10 == proj * e01
    # exhaustive oracle: the four vectors of F_2^2 fall into two cosets
    coords = {tuple((proj * Matrix.column(F2, v)).a[:, 0]) for v in product([0, 1], repeat=2)}
    assert len(coords) == 2
    assert proj * sub == Matrix.zeros(F2, 1, 1)


def _matrices(field):
    if field.is_prime_field:
        entry = st.integers(min_value=0, max_value=field.p - 1)
    else:
        entry = st.builds(
            Fraction,
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=1, max_value=4),
        )
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m,
            ).map(lambda rows: Matrix.from_rows(field, rows))))


@settings(max_examples=60, deadline=None)
@given(_matrices(QQ))
def test_rref_idempotent_qq(A):
    R, _ = rref(A)
    assert rref(R)[0] == R


@settings(max_examples=60, deadline=None)
@given(_matrices(F3))
def test_rank_nullity_f3(A):
    assert rank(A) + kernel_basis(A).cols == A.cols


@settings(max_examples=60, deadline=None)
@given(_matrices(F3))
def test_kernel_annihilates(A):
    K = kernel_basis(A)
    assert (A * K).is_zero()


@settings(max_examples=60, deadline=None)
@given(_matrices(QQ))
def test_solve_exact_on_success(A):
    b = A * Matrix.column(QQ, list(range(1, A.cols + 1)))
    x = solve(A, b)
    assert x is not None and A * x == b


@settings(max_examples=40, deadline=None)
@given(_matrices(F3))
def test_quotient_projection_identity(A):
    reps, proj = quotient_reps(A.rows, A)
    assert proj * reps == Matrix.identity(F3, reps.cols)
    assert (proj * A).is_zero()
    assert reps.cols == A.rows - rank(A)


# -- products over large primes ------------------------------------------

def _int_product(A, B):
    """Reference product in Python integers, reduced once at the end."""
    p = A.field.p
    return [[sum(int(A[i, k]) * int(B[k, j]) for k in range(A.cols)) % p
             for j in range(B.cols)] for i in range(A.rows)]


@pytest.mark.parametrize("p", [65521, 2**31 - 1])
def test_mul_top_residues_large_prime(p):
    F = GF(p)
    row = Matrix.from_rows(F, [[p - 1] * 3])
    assert (row * row.transpose()).a.tolist() == [[3]]


@pytest.mark.parametrize("p", [65521, 2**31 - 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mul_matches_integer_product_large_prime(p, data):
    F = GF(p)
    # bias towards p - 1, where partial sums are largest
    entry = st.one_of(st.just(p - 1), st.integers(min_value=0, max_value=p - 1))

    def matrix(rows, cols):
        row = st.lists(entry, min_size=cols, max_size=cols)
        return Matrix.from_rows(F, data.draw(st.lists(row, min_size=rows,
                                                      max_size=rows)))

    m, k, n = (data.draw(st.integers(min_value=1, max_value=7)) for _ in range(3))
    A, B = matrix(m, k), matrix(k, n)
    assert (A * B).a.tolist() == _int_product(A, B)


# Every prime regime of Matrix.__mul__: small p, 94906249 (the largest prime
# with (p-1)^2 < 2^53, float64 BLAS only for inner dimension 1), 94906297
# (the first prime above it) and 2^31-1 (several int64 blocks).
MUL_PRIMES = [2, 3, 65521, 94906249, 94906297, 2**31 - 1]


@pytest.mark.parametrize("p", MUL_PRIMES)
@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 24), k=st.integers(1, 24), n=st.integers(1, 24),
       top=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(m=16, k=16, n=16, top=True, seed=0)      # exactly 4096 multiply-adds
@example(m=16, k=16, n=15, top=True, seed=0)      # just below
@example(m=64, k=1, n=64, top=True, seed=0)       # inner dimension 1
@example(m=1, k=24, n=1, top=True, seed=0)
def test_mul_matches_python_int_product(p, m, k, n, top, seed):
    F = GF(p)
    rng = np.random.default_rng(seed)

    def operand(rows, cols):
        if top:     # all entries p - 1: the largest partial sums
            return Matrix(F, np.full((rows, cols), p - 1, dtype=np.int64))
        return Matrix(F, rng.integers(0, p, size=(rows, cols), dtype=np.int64))

    A, B = operand(m, k), operand(k, n)
    C = A * B
    assert C.a.dtype == np.int64
    # object arrays multiply in Python integers: the unbounded reference
    assert C.a.tolist() == (A.a.astype(object) @ B.a.astype(object) % p).tolist()


# -- the elimination properties over a large prime -------------------------

def _prime_matrices(field):
    """Small matrices whose entries favour 0, 1 and p-1, so ranks vary."""
    p = field.p
    entry = st.one_of(st.sampled_from([0, 1, p - 1]),
                      st.integers(min_value=0, max_value=p - 1))
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m,
            ).map(lambda rows: Matrix.from_rows(field, rows))))


@pytest.mark.parametrize("field", [F3, F65521], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_contract_prime(field, data):
    A = data.draw(_prime_matrices(field))
    R, pivots = rref(A)
    assert is_reduced_echelon(R, pivots)
    assert same_row_space(A, R)
    assert rref(R) == (R, pivots)


@pytest.mark.parametrize("field", [F65521], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_properties_prime(field, data):
    A = data.draw(_prime_matrices(field))
    K = kernel_basis(A)
    assert rank(A) + K.cols == A.cols
    assert (A * K).is_zero()


@pytest.mark.parametrize("field", [F3, F65521], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_exact_on_success_prime(field, data):
    A = data.draw(_prime_matrices(field))
    b = A * Matrix.column(field, list(range(1, A.cols + 1)))
    x = solve(A, b)
    assert x is not None and A * x == b


@pytest.mark.parametrize("field", [F65521], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_projection_identity_prime(field, data):
    A = data.draw(_prime_matrices(field))
    reps, proj = quotient_reps(A.rows, A)
    assert proj * reps == Matrix.identity(field, reps.cols)
    assert (proj * A).is_zero()
    assert reps.cols == A.rows - rank(A)


@pytest.mark.parametrize("field", [F2, F65521, QQ])
def test_unit_is_identity_column(field):
    for n in (1, 4):
        I = Matrix.identity(field, n)
        for j in range(n):
            e = Matrix.unit(field, n, j)
            assert e == Matrix(field, I.a[:, [j]])
            assert e.a.dtype == I.a.dtype


# -- linear combinations and coordinate matrices --------------------------

@pytest.mark.parametrize("field", [QQ] + [GF(p) for p in MUL_PRIMES], ids=str)
@settings(max_examples=25, deadline=None)
@given(terms=st.integers(0, 6), nonzero=st.integers(0, 6), rows=st.integers(0, 6),
       cols=st.integers(0, 6), top=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(terms=0, nonzero=0, rows=3, cols=2, top=False, seed=0)     # empty family
@example(terms=5, nonzero=0, rows=3, cols=2, top=True, seed=0)      # all zero
@example(terms=5, nonzero=1, rows=3, cols=2, top=True, seed=0)      # one term
@example(terms=1, nonzero=1, rows=0, cols=3, top=True, seed=0)      # no entries
@example(terms=3, nonzero=2, rows=4, cols=0, top=True, seed=0)
@example(terms=4, nonzero=4, rows=32, cols=32, top=True, seed=0)    # 4096 madds
@example(terms=4, nonzero=4, rows=31, cols=33, top=True, seed=0)    # just below
@example(terms=3, nonzero=3, rows=2, cols=2, top=True, seed=0)      # 2 blocks at 2^31-1
@example(terms=1023, nonzero=1023, rows=1, cols=3, top=True, seed=0)
@example(terms=1024, nonzero=1024, rows=1, cols=3, top=True, seed=0)
@example(terms=1025, nonzero=1025, rows=1, cols=3, top=True, seed=0)
def test_combine_matches_python_reference(field, terms, nonzero, rows, cols,
                                          top, seed):
    rng = np.random.default_rng(seed)
    prime = field.is_prime_field

    def entry(nonzero=False):
        if prime:
            return field.p - 1 if top else int(rng.integers(nonzero, field.p))
        num = int(rng.integers(-9, 10)) or (7 if nonzero else 0)
        return Fraction(num, int(rng.integers(1, 5)))

    def matrix():
        a = field.zeros(rows, cols)
        for i, j in product(range(rows), range(cols)):
            a[i, j] = field.of(entry())
        return Matrix(field, a)

    mats = [matrix() for _ in range(terms)]
    coeffs = [0] * terms
    for k in rng.permutation(terms)[:nonzero]:
        coeffs[k] = entry(nonzero=True)
    # the reference: Python integers (Fractions over Q), reduced at the end
    entries = [m.a.tolist() for m in mats]
    want = [[sum((c * e[i][j] for c, e in zip(coeffs, entries)), Fraction(0))
             for j in range(cols)] for i in range(rows)]
    if prime:
        want = [[int(x) % field.p for x in row] for row in want]
    got = combine(Matrix.column(field, coeffs), mats, rows, cols)
    assert got.field == field and got.a.shape == (rows, cols)
    assert got.a.dtype == field.zeros(0, 0).dtype
    assert got.a.tolist() == want


@pytest.mark.parametrize("field", [F2, QQ], ids=str)
def test_combine_needs_one_coefficient_per_matrix(field):
    mats = [Matrix.identity(field, 2)] * 2
    for n in (0, 1, 3):
        with pytest.raises(ValueError, match="coefficients"):
            combine(Matrix.column(field, [1] * n), mats, 2, 2)


@pytest.mark.parametrize("field", [F2, F65521, QQ], ids=str)
def test_from_columns(field):
    empty = Matrix.from_columns(field, 3, [])
    assert empty == Matrix.zeros(field, 3, 0)
    assert empty.a.dtype == field.zeros(0, 0).dtype
    I = Matrix.identity(field, 3)
    blocks = [I.a[:, [2]], I.a[:, :2]]
    assert Matrix.from_columns(field, 3, blocks) == I.take_columns([2, 0, 1])


# -- shapes of the constructors -------------------------------------------

@pytest.mark.parametrize("field", [F2, QQ], ids=str)
def test_column_of_no_entries_is_0_by_1(field):
    assert Matrix.column(field, []).a.shape == (0, 1)
    assert Matrix.column(field, [1, 0]).a.shape == (2, 1)
    # no rows is the 0 x 0 action on a 0-dimensional module
    assert Matrix.from_rows(field, []).a.shape == (0, 0)


# -- the elimination regimes ----------------------------------------------

REGIME_FIELDS = [F2, F3, F65521, GF(2**31 - 1), QQ]
# Both sides of every regime bound: 16/17 cells (packed GF(2)), 256/257
# cells (Python lists), and 7/8/9 and 63/64/65 columns, where a packed row
# crosses a byte and a 64-bit word; plus matrices with no rows or columns.
REGIME_SHAPES = [(0, 0), (0, 5), (5, 0), (4, 4), (1, 16), (16, 1), (1, 17),
                 (17, 1), (16, 16), (1, 256), (1, 257), (257, 1), (16, 17),
                 (3, 7), (3, 8), (3, 9), (5, 63), (5, 64), (5, 65)]


def _reference_rref(field, rows, ncols):
    """Textbook Gauss-Jordan in Python ints mod p, or in Fractions."""
    p = field.p
    red = (lambda x: x % p) if p else (lambda x: x)
    inv = (lambda x: pow(x, -1, p)) if p else (lambda x: 1 / x)
    R = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        s = inv(R[r][c])
        R[r] = [red(x * s) for x in R[r]]
        for j in range(len(R)):
            if j != r and R[j][c] != 0:
                f = R[j][c]
                R[j] = [red(x - f * y) for x, y in zip(R[j], R[r])]
        pivots.append(c)
    return R, pivots


def _regime_rows(field, nrows, ncols, kind, rng):
    """Rows of field elements: uniform, sparse, with duplicate rows, or of
    rank at most min(nrows, ncols) // 2."""
    p = field.p

    def entry():
        if kind == "sparse" and rng.random() < 0.8:
            return field.of(0)
        if p is None:
            return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        if kind == "sparse":
            return int(rng.choice([1, p - 1, int(rng.integers(0, p))]))
        return int(rng.integers(0, p))

    if kind == "low-rank":
        k = min(nrows, ncols) // 2
        left = [[entry() for _ in range(k)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(k)]
        rows = [[field.of(sum((x * y for x, y in zip(row, col)), Fraction(0)))
                 for col in zip(*right)] if k else [field.of(0)] * ncols
                for row in left]
        return rows
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if kind == "duplicate":
        for i in range(1, nrows, 2):
            rows[i] = list(rows[int(rng.integers(0, i))])
    return rows


@pytest.mark.parametrize("shape", REGIME_SHAPES, ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("field", REGIME_FIELDS, ids=str)
@settings(max_examples=4, deadline=None)
@given(kind=st.sampled_from(["uniform", "sparse", "duplicate", "low-rank"]),
       seed=st.integers(0, 2**32 - 1))
@example(kind="low-rank", seed=0)
@example(kind="duplicate", seed=0)
def test_every_rref_regime_matches_reference(field, shape, kind, seed):
    nrows, ncols = shape
    rows = _regime_rows(field, nrows, ncols, kind, np.random.default_rng(seed))
    want_R, want_pivots = _reference_rref(field, rows, ncols)
    a = field.zeros(nrows, ncols)
    for i, row in enumerate(rows):
        a[i, :] = row
    kernels = [exactlin._rref_array, exactlin._rref_list, exactlin._rref_numpy]
    if field == F2:
        kernels.append(lambda field, a: exactlin._rref_gf2(a))
    for kernel in kernels:
        b = a.copy()
        assert kernel(field, b) == want_pivots
        assert b.dtype == a.dtype and b.tolist() == want_R


# -- the small-product path -----------------------------------------------

@pytest.mark.parametrize("p", [2, 2**31 - 1])
@pytest.mark.parametrize("mkn", [(45, 7, 13), (16, 16, 16), (65, 1, 63),
                                 (64, 1, 64), (35, 3, 39), (32, 2, 64)],
                         ids=lambda s: "%dx%dx%d" % s)
def test_mul_either_side_of_4096_madds(p, mkn):
    m, k, n = mkn
    F = GF(p)
    rng = np.random.default_rng(m * k * n)
    for A, B in [(np.full((m, k), p - 1), np.full((k, n), p - 1)),
                 (rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n)))]:
        C = Matrix(F, A.astype(np.int64)) * Matrix(F, B.astype(np.int64))
        assert C.a.dtype == np.int64
        assert C.a.tolist() == (A.astype(object) @ B.astype(object) % p).tolist()


def test_mul_across_fields_raises_and_equal_fields_multiply():
    with pytest.raises(FieldMismatch):
        Matrix.identity(F2, 2) * Matrix.identity(F3, 2)
    with pytest.raises(FieldMismatch):
        Matrix.zeros(GF(2**31 - 1), 0, 0) * Matrix.zeros(QQ, 0, 0)
    # equal fields need not be the same object
    assert Matrix.identity(GF(3), 2) * Matrix.identity(GF(3), 2) == Matrix.identity(F3, 2)
