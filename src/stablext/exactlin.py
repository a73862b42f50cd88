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

Elimination picks one of three kernels by field, size and nonzero count:
GF(2) matrices of more than 16 cells are packed into one Python int per
row and reduced by XOR (Albrecht, Bard, Hart, ACM TOMS 37(1), 2010); other
matrices of at most 256 cells are reduced on Python lists, over primes
above 7 only when they have at most 64 nonzero entries; the rest column by
column in numpy.
The reduced row echelon form of a matrix is unique, so all three return
the same R and the same pivots.
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
        if p is not None:
            # the int64 sum of `step` products of residues cannot overflow
            self.step = max(1, (2**63 - 1) // (p - 1) ** 2)

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
        """The matrix with these rows; no rows give 0 x 0, the shape of
        every action on a 0-dimensional module."""
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
        """A len(entries) x 1 column, also when there are no entries."""
        return cls(field, field.array([[x] for x in entries]).reshape(-1, 1))

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
                and bool((self.a == other.a).all()))

    def __repr__(self):
        return f"Matrix({self.field}, {self.a.tolist()})"

    def is_zero(self) -> bool:
        return self.a.size == 0 or bool((self.a == self.field.of(0)).all())

    def entry_bytes(self) -> bytes:
        """The entries in row-major order as bytes, equal exactly when the
        entries are: int64 residues over F_p; over Q the normalized
        numerator/denominator pairs as text (an object array's own bytes
        are the addresses of its Fractions, never used)."""
        if self.field.is_prime_field:
            return self.a.astype(np.int64, copy=False).tobytes()
        return ",".join(["%d/%d" % (x.numerator, x.denominator)
                         for x in self.a.flat]).encode()

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
        F = self.field
        if other.field is not F:
            self._check(other)
        a, b = self.a, other.a
        m, k = a.shape
        kb, n = b.shape
        if k != kb:
            raise ValueError(f"shape mismatch in *: {a.shape} x {b.shape}")
        p = F.p
        if p is None:
            if a.size == 0 or b.size == 0:
                return Matrix.zeros(F, m, n)
            return Matrix(F, a @ b)
        if m * k * n >= _BLAS_MIN_MADDS and k * (p - 1) ** 2 < 2**53:
            # every partial sum is an integer below 2^53, so float64 BLAS
            # computes it exactly (Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008)
            c = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
            c %= p
            return Matrix(F, c)
        step = F.step
        if k <= step:
            # also every small product, and int64 zeros for an empty operand
            c = a @ b
            c %= p
            return Matrix(F, c)
        c = np.zeros((m, n), dtype=np.int64)
        for s in range(0, k, step):
            c += a[:, s:s + step] @ b[s:s + step, :] % p
            c %= p
        return Matrix(F, c)

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
        (m, n), (r, s) = self.a.shape, other.a.shape
        # np.kron's values, without its per-call cost
        c = (self.a[:, None, :, None] * other.a[None, :, None, :]).reshape(m * r, n * s)
        if self.field.is_prime_field:
            c %= self.field.p
        return Matrix(self.field, c)

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

# Regime bounds, from timing the kernels: over GF(2) packing pays for its
# fixed cost above 16 cells; elsewhere Python lists beat numpy's per-pivot
# cost up to 256 cells (rows x columns) over Q and F_p, p <= 7.  Over larger
# primes fill-in and wider residue products make each list update dearer,
# so there the input's nonzero entries bound the list kernel too: on 16 x 16
# matrices lists still win at 64 nonzeros over GF(11) to GF(2^31 - 1), and
# lose at 80 over GF(2^31 - 1).
_GF2_LIST_MAX_CELLS = 16
_LIST_MAX_CELLS = 256
_LIST_MAX_NONZEROS = 64


def _rref_array(field: Field, a: np.ndarray):
    """In-place reduced row echelon form; returns pivot column list."""
    nrows, ncols = a.shape
    if nrows == 0 or ncols == 0:
        return []
    cells = nrows * ncols
    if field.p == 2 and cells > _GF2_LIST_MAX_CELLS:
        return _rref_gf2(a)
    if cells <= _LIST_MAX_CELLS:
        if (field.p is None or field.p <= 7 or cells <= _LIST_MAX_NONZEROS
                or np.count_nonzero(a) <= _LIST_MAX_NONZEROS):
            return _rref_list(field, a)
    return _rref_numpy(field, a)


def _rref_gf2(a: np.ndarray):
    """_rref_array over GF(2): bit j of the int for row i is a[i, j]."""
    nrows, ncols = a.shape
    packed = np.packbits(a.astype(np.uint8), axis=1, bitorder="little")
    nbytes = packed.shape[1]
    data = packed.tobytes()
    lead = {}                       # leading column -> the row holding it
    for i in range(nrows):
        x = int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "little")
        while x:
            c = (x & -x).bit_length() - 1
            y = lead.get(c)
            if y is None:
                lead[c] = x
                break
            x ^= y
    pivots = sorted(lead)
    # Clear each pivot column above its row, the rightmost first: the row
    # used has by then lost every pivot to its right.
    for i in range(len(pivots) - 1, 0, -1):
        bit, y = 1 << pivots[i], lead[pivots[i]]
        for c in pivots[:i]:
            if lead[c] & bit:
                lead[c] ^= y
    data = b"".join(lead[c].to_bytes(nbytes, "little") for c in pivots)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(pivots), nbytes)
    a[:len(pivots)] = np.unpackbits(rows, axis=1, count=ncols, bitorder="little")
    a[len(pivots):] = 0
    return pivots


def _rref_list(field: Field, a: np.ndarray):
    """_rref_array on Python lists: int residues mod p, or Fractions."""
    nrows, ncols = a.shape
    p = field.p
    rows = a.tolist()
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        piv = top[c]
        if piv != 1:
            inv = field.inv(piv)
            top[c:] = ([x * inv % p for x in top[c:]] if p is not None
                       else [x * inv for x in top[c:]])
        tail = top[c:]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c:] = ([(x - f * y) % p for x, y in zip(row[c:], tail)]
                           if p is not None
                           else [x - f * y for x, y in zip(row[c:], tail)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if rows:
        a[:] = rows
    return pivots


def _rref_numpy(field: Field, a: np.ndarray):
    """_rref_array column by column on the array itself."""
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
    aug = np.concatenate((A.a, b.a), axis=1)
    pivots = _rref_array(A.field, aug)
    n = A.cols
    # a pivot landing in the rhs block (pivots ascend) marks inconsistency
    if pivots and pivots[-1] >= n:
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
