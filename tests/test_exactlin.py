from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from stablext.exactlin import (
    GF, QQ, FieldMismatch, Matrix, kernel_basis, quotient_reps, rank, rref, solve,
)

F2 = GF(2)
F3 = GF(3)


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
