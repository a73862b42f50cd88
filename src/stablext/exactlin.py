"""Deterministic exact linear algebra over Q and F_p.

Everything downstream (hom spaces, Ext groups, coset spaces) reduces to the
five primitives here: ``rref``, ``kernel_basis``, ``solve``,
``quotient_reps`` and ``combine``, the one way to form a linear combination
of matrices; ``Matrix.from_columns`` is the one way to set coordinate
columns side by side.  All arithmetic is exact: rationals are
``fractions.Fraction`` held in numpy object arrays, prime fields are int64
residues.  Large F_p products run on float64 BLAS, but only when every
partial sum is an integer below 2^53, so each is computed exactly and the
result is converted back to int64 residues; no result is ever a float.
Pivoting is leftmost-column-first, topmost-row-first, so every basis
produced anywhere in the package is reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "Field", "QQ", "GF", "FieldMismatch", "Matrix",
    "rref", "rank", "kernel_basis", "solve", "quotient_reps", "combine",
]


class FieldMismatch(ValueError):
    """Raised when matrices over different fields are combined."""


class Field:
    """A field descriptor: the rationals or a prime field F_p."""

    def __init__(self, p: int | None = None):
        if p is not None:
            if p < 2 or p >= 2**31:
                raise ValueError(f"prime must satisfy 2 <= p < 2^31, got {p}")
            for d in range(2, p):
                if d * d > p:
                    break
                if p % d == 0:
                    raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    # -- scalar helpers -------------------------------------------------

    def of(self, x):
        """Coerce an int / Fraction / string like '3/2' into this field."""
        if self.p is None:
            return Fraction(x)
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"{x} has no image in GF({self.p})")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def inv(self, x):
        if self.p is None:
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return Fraction(1) / x
        return pow(int(x), -1, self.p)

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        if self.p is None:
            a = np.empty((rows, cols), dtype=object)
            a[:, :] = Fraction(0)
            return a
        return np.zeros((rows, cols), dtype=np.int64)

    def array(self, rows) -> np.ndarray:
        data = [[self.of(x) for x in row] for row in rows]
        ncols = len(data[0]) if data else 0
        if self.p is None:
            a = np.empty((len(data), ncols), dtype=object)
            for i, row in enumerate(data):
                for j, x in enumerate(row):
                    a[i, j] = x
            return a
        return np.array(data, dtype=np.int64).reshape(len(data), ncols)


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)


# Below this many multiply-adds numpy's int64 matmul beats the float64
# round trip through BLAS.
_BLAS_MIN_MADDS = 4096


class Matrix:
    """Dense exact matrix over a fixed field.

    Immutable by convention: no method mutates ``self``; all operations
    return fresh matrices.  ``a`` is an int64 array for F_p (entries reduced
    to [0, p)) and an object array of Fractions for Q.
    """

    __slots__ = ("field", "a")

    def __init__(self, field: Field, a: np.ndarray):
        self.field = field
        self.a = a

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        return cls(field, field.array(rows))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, field.zeros(rows, cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        a = field.zeros(n, n)
        for i in range(n):
            a[i, i] = field.of(1)
        return cls(field, a)

    @classmethod
    def unit(cls, field: Field, n: int, j: int) -> "Matrix":
        """The j-th standard basis column of length n."""
        a = field.zeros(n, 1)
        a[j, 0] = field.of(1)
        return cls(field, a)

    @classmethod
    def column(cls, field: Field, entries) -> "Matrix":
        return cls.from_rows(field, [[x] for x in entries])

    @classmethod
    def from_columns(cls, field: Field, rows: int, blocks) -> "Matrix":
        """The arrays ``blocks`` (each with ``rows`` rows) side by side;
        rows x 0 when there are none."""
        return cls(field, np.hstack([field.zeros(rows, 0), *blocks]))

    # -- shape ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __getitem__(self, ij):
        return self.a[ij]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.a.shape == other.a.shape
                and bool(np.all(self.a == other.a)))

    def __repr__(self):
        return f"Matrix({self.field}, {self.a.tolist()})"

    def is_zero(self) -> bool:
        return self.a.size == 0 or bool(np.all(self.a == self.field.of(0)))

    def copy_array(self) -> np.ndarray:
        return self.a.copy()

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.a.shape != other.a.shape:
            raise ValueError("shape mismatch in +")
        c = self.a + other.a
        if self.field.is_prime_field:
            c %= self.field.p
        return Matrix(self.field, c)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.a.shape != other.a.shape:
            raise ValueError("shape mismatch in -")
        c = self.a - other.a
        if self.field.is_prime_field:
            c %= self.field.p
        return Matrix(self.field, c)

    def __neg__(self) -> "Matrix":
        c = -self.a
        if self.field.is_prime_field:
            c %= self.field.p
        return Matrix(self.field, c)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in *: {self.a.shape} x {other.a.shape}")
        if self.a.size == 0 or other.a.size == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        if not self.field.is_prime_field:
            return Matrix(self.field, self.a @ other.a)
        p = self.field.p
        if (self.cols * (p - 1) ** 2 < 2**53
                and self.rows * self.cols * other.cols >= _BLAS_MIN_MADDS):
            # every partial sum is an integer below 2^53, so float64 BLAS
            # computes it exactly (Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008)
            c = (self.a.astype(np.float64) @ other.a.astype(np.float64)).astype(np.int64)
            c %= p
            return Matrix(self.field, c)
        # the int64 sum of `step` products of residues cannot overflow
        step = max(1, (2**63 - 1) // (p - 1) ** 2)
        if self.cols <= step:
            c = self.a @ other.a
            c %= p
            return Matrix(self.field, c)
        c = np.zeros((self.rows, other.cols), dtype=np.int64)
        for s in range(0, self.cols, step):
            c += self.a[:, s:s + step] @ other.a[s:s + step, :] % p
            c %= p
        return Matrix(self.field, c)

    def scale(self, s) -> "Matrix":
        s = self.field.of(s)
        c = self.a * s
        if self.field.is_prime_field:
            c %= self.field.p
        return Matrix(self.field, c)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.a.T.copy())

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, np.hstack([self.a, other.a]))

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix(self.field, np.vstack([self.a, other.a]))

    def take_columns(self, idx) -> "Matrix":
        return Matrix(self.field, self.a[:, list(idx)])

    def kron(self, other: "Matrix") -> "Matrix":
        self._check(other)
        c = np.kron(self.a, other.a)
        if self.field.is_prime_field:
            c %= self.field.p
        return Matrix(self.field, c.reshape(self.rows * other.rows, self.cols * other.cols))

    @staticmethod
    def block_diag(field: Field, blocks) -> "Matrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        a = field.zeros(rows, cols)
        r = c = 0
        for b in blocks:
            if b.field != field:
                raise FieldMismatch(f"{b.field} vs {field}")
            a[r:r + b.rows, c:c + b.cols] = b.a
            r += b.rows
            c += b.cols
        return Matrix(field, a)

    def flatten(self) -> "Matrix":
        """Row-major flattening into a single column."""
        return Matrix(self.field, self.a.reshape(self.rows * self.cols, 1).copy())

    def unflatten(self, rows: int, cols: int) -> "Matrix":
        return Matrix(self.field, self.a.reshape(rows, cols).copy())


def combine(coeffs: Matrix, mats, rows: int, cols: int) -> Matrix:
    """sum_k coeffs[k] * mats[k] for a coefficient column and rows x cols
    matrices: one product of the nonzero coefficients with their stacked,
    flattened matrices, so it takes the exact paths of ``Matrix.__mul__``."""
    F = coeffs.field
    c = coeffs.a.reshape(-1)
    if c.size != len(mats):
        raise ValueError(f"combine: {c.size} coefficients for {len(mats)} matrices")
    nz = np.nonzero(c != F.of(0))[0]
    if nz.size == 0:
        return Matrix.zeros(F, rows, cols)
    if nz.size == 1:
        return mats[nz[0]].scale(c[nz[0]])
    stacked = Matrix(F, np.stack([mats[k].a.reshape(-1) for k in nz]))
    return Matrix(F, (Matrix(F, c[nz].reshape(1, -1)) * stacked).a.reshape(rows, cols))


# ----------------------------------------------------------------------
# Elimination primitives
# ----------------------------------------------------------------------

def _rref_array(field: Field, a: np.ndarray):
    """In-place reduced row echelon form; returns pivot column list."""
    nrows, ncols = a.shape
    pivots = []
    r = 0
    zero = field.of(0)
    # Invariant: rows r and below are zero in every column left of c.  So
    # the pivot row is zero left of c, and the swap, the scaling and the
    # row updates only ever change columns c and to the right.
    for c in range(ncols):
        if r >= nrows:
            break
        # topmost nonzero entry in column c at or below row r
        sub = a[r:, c]
        nz = np.nonzero(sub != zero)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        piv = a[r, c]
        if piv != field.of(1):
            a[r, c:] = a[r, c:] * field.inv(piv)
            if field.is_prime_field:
                a[r, c:] %= field.p
        col = a[:, c].copy()
        col[r] = zero
        hit = np.nonzero(col != zero)[0]
        if hit.size:
            a[hit, c:] = a[hit, c:] - np.outer(col[hit], a[r, c:])
            if field.is_prime_field:
                a[hit, c:] %= field.p
        pivots.append(c)
        r += 1
    return pivots


def rref(A: Matrix):
    """Reduced row echelon form.  Returns (R, pivot column indices)."""
    a = A.copy_array()
    pivots = _rref_array(A.field, a)
    return Matrix(A.field, a), pivots


def rank(A: Matrix) -> int:
    return len(rref(A)[1])


def kernel_basis(A: Matrix) -> Matrix:
    """Columns form the canonical free-variable basis of {x : Ax = 0}."""
    R, pivots = rref(A)
    free = _free_columns(A.cols, pivots)
    K = A.field.zeros(A.cols, len(free))
    K[free, np.arange(len(free))] = A.field.of(1)
    K[pivots, :] = _negated_pivot_entries(A.field, R, pivots, free)
    return Matrix(A.field, K)


def _free_columns(n: int, pivots) -> np.ndarray:
    """The non-pivot indices among 0..n-1, ascending."""
    pset = set(pivots)
    return np.array([j for j in range(n) if j not in pset], dtype=np.intp)


def _negated_pivot_entries(field: Field, R: Matrix, pivots, free) -> np.ndarray:
    """-R[i, j] for pivot rows i and free columns j, as field elements."""
    v = -R.a[:len(pivots), free]
    if field.is_prime_field:
        v %= field.p
    return v


def solve(A: Matrix, b: Matrix):
    """A particular solution x of Ax = b (free variables 0), or None.

    ``b`` may have several columns; solutions are found column by column and
    None is returned if any column is inconsistent.
    """
    if A.field != b.field:
        raise FieldMismatch(f"{A.field} vs {b.field}")
    if A.rows != b.rows:
        raise ValueError(f"solve: {A.rows} rows vs rhs {b.rows}")
    aug = np.hstack([A.copy_array(), b.copy_array()])
    pivots = _rref_array(A.field, aug)
    n = A.cols
    # any pivot landing in the rhs block marks inconsistency
    if any(c >= n for c in pivots):
        return None
    X = A.field.zeros(n, b.cols)
    X[pivots, :] = aug[:len(pivots), n:]
    return Matrix(A.field, X)


def quotient_reps(ambient_dim: int, sub: Matrix):
    """Coset representatives and projection for k^ambient / span(sub columns).

    Returns (reps, project): ``reps`` has one column per quotient basis
    vector (a standard basis vector of the ambient space), and ``project``
    maps an ambient vector to its coordinate vector in that basis.
    ``project * sub == 0`` and ``project * reps == identity``.
    """
    field = sub.field
    if sub.rows != ambient_dim:
        raise ValueError(f"sub lives in k^{sub.rows}, expected k^{ambient_dim}")
    R, pivots = rref(sub.transpose())
    free = _free_columns(ambient_dim, pivots)
    reps = field.zeros(ambient_dim, len(free))
    reps[free, np.arange(len(free))] = field.of(1)
    # One reduction pass v -> v - sum_i v[c_i] R_i zeroes every pivot
    # coordinate (rows are fully reduced), so the free coordinates of the
    # result are the quotient coordinates:
    #   project[k, m] = delta(m, free_k) - R_i[free_k] when m = pivot c_i.
    proj = reps.T.copy()
    proj[:, pivots] = _negated_pivot_entries(field, R, pivots, free).T
    return Matrix(field, reps), Matrix(field, proj)
