"""Finite-dimensional split basic algebras and their module categories.

An :class:`Algebra` is given by a multiplication table on a fixed basis,
together with a complete set of orthogonal primitive idempotents and a
spanning set of its radical; every structural axiom is verified at
construction time.  Algebras are built either from a bound quiver
(:func:`algebra_from_quiver`) or from an explicit table
(:func:`algebra_from_table`).

Modules are representations: one action matrix per algebra basis element.
Morphisms are intertwining matrices.  All constructions (kernels, images,
quotients, sums, pullbacks, pushouts, covers, envelopes) are normalized
through the deterministic elimination of :mod:`stablext.exactlin`, so equal
inputs always produce coordinate-identical outputs.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .exactlin import (Field, Matrix, combine, kernel_basis, quotient_reps, rank,
                       rref, solve)

__all__ = [
    "AlgebraError", "ModuleError", "ConflationError",
    "QuiverPresentation", "Algebra", "Module", "ModuleMap", "Conflation",
    "algebra_from_quiver", "algebra_from_table", "column_space_basis",
    "hom_space", "hom_dim", "random_hom", "is_isomorphic",
    "indecomposable_summands",
    "identity_map", "zero_map",
    "kernel_module", "image_module", "cokernel_module",
    "submodule", "quotient_module", "direct_sum", "zero_module",
    "simples", "projective_indecs", "injective_indecs",
    "top", "rad", "socle", "projective_cover", "injective_envelope",
    "pullback", "pushout", "mediating_map_pullback",
    "check_conflation", "splice",
    "dual_module", "dual_map", "dual_conflation",
]


class AlgebraError(ValueError):
    pass


class ModuleError(ValueError):
    pass


class ConflationError(ValueError):
    pass


# ----------------------------------------------------------------------
# Quivers
# ----------------------------------------------------------------------

class QuiverPresentation:
    """A quiver with k-linear relations between parallel paths.

    Paths are written in traversal order: the tuple (a, b) is the path that
    traverses arrow a first, then b, and acts on modules as the composite
    action(b) @ action(a).  Relations are lists of (coefficient, path)
    terms; every path in one relation must be parallel (same source and
    target) and of length >= 2.
    """

    def __init__(self, field: Field, vertices, arrows, relations=()):
        self.field = field
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex names")
        self.arrows = []          # (name, src, dst)
        self._arrow_index = {}
        for name, src, dst in arrows:
            if src not in self.vertices or dst not in self.vertices:
                raise AlgebraError(f"arrow {name}: unknown vertex")
            if name in self._arrow_index or name in self.vertices:
                raise AlgebraError(f"duplicate arrow name {name}")
            self._arrow_index[name] = len(self.arrows)
            self.arrows.append((name, src, dst))
        self.relations = []
        for rel in relations:
            terms = [(field.of(c), tuple(path)) for c, path in rel]
            for _, path in terms:
                if len(path) < 2:
                    raise AlgebraError("relation contains a path of length < 2 "
                                       "(non-admissible)")
                self._check_path(path)
            ends = {(self._path_source(p), self._path_target(p)) for _, p in terms}
            if len(ends) != 1:
                raise AlgebraError("relation mixes non-parallel paths")
            self.relations.append(terms)

    def _check_path(self, path):
        for name in path:
            if name not in self._arrow_index:
                raise AlgebraError(f"unknown arrow {name} in path")
        for a, b in zip(path, path[1:]):
            if self.arrows[self._arrow_index[a]][2] != self.arrows[self._arrow_index[b]][1]:
                raise AlgebraError(f"path {'.'.join(path)} is not composable")

    def _path_source(self, path):
        return self.arrows[self._arrow_index[path[0]]][1]

    def _path_target(self, path):
        return self.arrows[self._arrow_index[path[-1]]][2]


# ----------------------------------------------------------------------
# Algebras
# ----------------------------------------------------------------------

class Algebra:
    """Split basic algebra with verified structure.

    ``table[i][j]`` holds the coordinates of basis_i * basis_j.  The
    idempotent list is complete, orthogonal and primitive (primitivity is
    forced by the split basic count dim A - dim J = r, checked below).
    """

    def __init__(self, field: Field, labels, table, unit, idempotents,
                 radical_span: Matrix, name: str = "", _skip_checks: bool = False):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.name = name
        self.table = table
        self.unit = unit
        self.idempotents = [Matrix.column(field, list(e)) for e in idempotents]
        self.radical_span = radical_span
        self._left = None
        self._right = None
        self._op = None
        self._gens = None
        self._semisimple_coeffs = None
        self._regular = None
        self._projs = None
        self._proj_incls = None
        if not _skip_checks:
            self._validate()

    # -- structure access ------------------------------------------------

    def left_mult(self):
        """Left multiplication matrices L_i with columns basis_i * basis_j."""
        if self._left is None:
            mats = []
            for i in range(self.dim):
                a = self.field.zeros(self.dim, self.dim)
                for j in range(self.dim):
                    a[:, j] = self.table[i][j]
                mats.append(Matrix(self.field, a))
            self._left = mats
        return self._left

    def right_mult(self):
        if self._right is None:
            mats = []
            for i in range(self.dim):
                a = self.field.zeros(self.dim, self.dim)
                for j in range(self.dim):
                    a[:, j] = self.table[j][i]
                mats.append(Matrix(self.field, a))
            self._right = mats
        return self._right

    def mult_by(self, coords: Matrix, side="left") -> Matrix:
        """Multiplication by the element with the given coordinate column."""
        mats = self.left_mult() if side == "left" else self.right_mult()
        return combine(coords, mats, self.dim, self.dim)

    @property
    def n_idempotents(self):
        return len(self.idempotents)

    def generators(self):
        """Idempotents plus radical generators modulo J^2 (coordinate columns).

        The subalgebra they generate is all of A, so a matrix intertwining
        the generator actions intertwines every basis element.
        """
        if self._gens is None:
            J = self.radical_span
            cols = [Matrix(self.field, J.a[:, [k]]) for k in range(J.cols)]
            J2 = Matrix.from_columns(self.field, self.dim,
                                     [(self.mult_by(x, "left") * J).a for x in cols])
            # keep the radical columns that extend a basis of J^2: with
            # leftmost pivoting, the pivot columns of [J^2 | J] past J^2
            _, pivots = rref(J2.hstack(J))
            chosen = [cols[k - J2.cols] for k in pivots if k >= J2.cols]
            self._gens = list(self.idempotents) + chosen
        return self._gens

    def opposite(self) -> "Algebra":
        """The opposite algebra; an involution (A.opposite().opposite() is A)."""
        if self._op is None:
            table = [[self.table[j][i] for j in range(self.dim)]
                     for i in range(self.dim)]
            op = Algebra(self.field, self.labels, table, self.unit,
                         [e.a[:, 0] for e in self.idempotents],
                         self.radical_span, name=f"op({self.name})",
                         _skip_checks=True)
            op._validate()
            op._op = self
            self._op = op
        return self._op

    def semisimple_coefficients(self) -> Matrix:
        """Row i gives the coefficient of idempotent e_i in each basis
        element modulo the radical (the change of basis through e's + J)."""
        if self._semisimple_coeffs is None:
            Jb = column_space_basis(self.radical_span)
            B = Matrix.from_columns(self.field, self.dim,
                                    [e.a for e in self.idempotents] + [Jb.a])
            X = solve(B, Matrix.identity(self.field, self.dim))
            if X is None or B.cols != self.dim:
                raise AlgebraError("idempotents + radical do not form a basis")
            self._semisimple_coeffs = Matrix(self.field, X.a[:self.n_idempotents, :])
        return self._semisimple_coeffs

    def regular_module(self) -> "Module":
        """The regular left module, built and validated once per algebra."""
        if self._regular is None:
            self._regular = Module(self, self.dim, self.left_mult(),
                                   name=f"{self.name or 'A'}")
        return self._regular

    # -- validation -------------------------------------------------------

    def _validate(self):
        F, d = self.field, self.dim
        for i in range(d):
            if len(self.table[i]) != d:
                raise AlgebraError("multiplication table is not square")
            for j in range(d):
                if self.table[i][j].shape != (d,):
                    raise AlgebraError(f"product coordinates ({i},{j}) have wrong length")
        L = self.left_mult()
        # associativity: L is a homomorphism, L_i L_j = sum_k c^k_{ij} L_k
        for i in range(d):
            for j in range(d):
                rhs = self.mult_by(Matrix(F, self.table[i][j].reshape(d, 1)))
                if L[i] * L[j] != rhs:
                    raise AlgebraError(f"associativity fails at product ({i},{j})")
        u = Matrix(F, np.array(self.unit).reshape(d, 1)) if not isinstance(self.unit, Matrix) \
            else self.unit
        self.unit = u
        Lu = self.mult_by(u, "left")
        Ru = self.mult_by(u, "right")
        if Lu != Matrix.identity(F, d) or Ru != Matrix.identity(F, d):
            raise AlgebraError("unit coordinates do not define a two-sided unit")
        # orthogonal idempotents summing to 1
        s = Matrix.zeros(F, d, 1)
        for i, e in enumerate(self.idempotents):
            s = s + e
            Le = self.mult_by(e, "left")
            for j, f in enumerate(self.idempotents):
                pr = Le * f
                want = e if i == j else Matrix.zeros(F, d, 1)
                if pr != want:
                    raise AlgebraError(f"idempotents {i},{j} not orthogonal idempotent")
        if s != u:
            raise AlgebraError("idempotents do not sum to the unit")
        # radical: a nilpotent two-sided ideal with dim A - dim J = r
        J = self.radical_span
        rj = rank(J)
        for i in range(d):
            if rank(J.hstack(L[i] * J)) != rj or rank(J.hstack(self.right_mult()[i] * J)) != rj:
                raise AlgebraError("radical span is not a two-sided ideal")
        power = column_space_basis(J)
        for _ in range(d + 1):
            if power.cols == 0:
                break
            nxt = column_space_basis(Matrix.from_columns(F, d, [
                (self.mult_by(Matrix(F, J.a[:, [k]]), "left") * power).a
                for k in range(J.cols)]))
            if nxt.cols >= power.cols:
                raise AlgebraError("radical span is not nilpotent")
            power = nxt
        else:
            raise AlgebraError("radical span is not nilpotent")
        if d - rj != self.n_idempotents:
            raise AlgebraError(
                f"not split basic: dim A - dim J = {d - rj} != {self.n_idempotents} idempotents")

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise AlgebraError(f"unknown basis label {label!r}") from None

    def __repr__(self):
        return f"Algebra({self.name or '?'}, dim={self.dim}, field={self.field})"


def column_space_basis(A: Matrix) -> Matrix:
    """The pivot columns of A: the canonical basis of its column space."""
    _, pivots = rref(A)
    return A.take_columns(pivots)


# ----------------------------------------------------------------------
# Quiver and table constructors
# ----------------------------------------------------------------------

class _Path:
    __slots__ = ("arrows", "src", "dst")

    def __init__(self, arrows, src, dst):
        self.arrows = arrows      # tuple of arrow indices, traversal order
        self.src = src
        self.dst = dst

    def __len__(self):
        return len(self.arrows)


def _enumerate_paths(q: QuiverPresentation, max_len: int, alive=None, cap: int = 20000):
    """All paths of length <= max_len, optionally pruned by a liveness test."""
    paths = [_Path((), v, v) for v in q.vertices]
    frontier = list(paths)
    by_len = [list(paths)]
    for _ in range(max_len):
        new = []
        for p in frontier:
            for ai, (name, src, dst) in enumerate(q.arrows):
                if src != p.dst:
                    continue
                cand = _Path(p.arrows + (ai,), p.src, dst)
                if alive is not None and not alive(cand):
                    continue
                new.append(cand)
        paths.extend(new)
        by_len.append(new)
        frontier = new
        if len(paths) > cap:
            raise AlgebraError(
                f"path count exceeded {cap}; algebra not finite-dimensional "
                f"within the configured bound")
        if not new:
            break
    return paths, by_len


def _path_label(q: QuiverPresentation, p: _Path) -> str:
    if not p.arrows:
        return f"e_{p.src}"
    return ".".join(q.arrows[a][0] for a in p.arrows)


def algebra_from_quiver(q: QuiverPresentation, length_bound: int = 12,
                        name: str = "") -> Algebra:
    """The bound quiver algebra kQ/I, with basis a set of surviving paths.

    Monomial relations are handled by pruning dead paths.  General relations
    go through bounded linear elimination on the path space: the ideal's
    span is computed degree by degree and the quotient dimension must
    stabilize for two consecutive lengths, otherwise the construction fails
    loudly.
    """
    F = q.field
    rel_paths = [[(c, tuple(q._arrow_index[a] for a in path)) for c, path in rel]
                 for rel in q.relations]
    monomial = all(len(rel) == 1 for rel in rel_paths)

    if monomial:
        dead = [r[0][1] for r in rel_paths]

        def alive(p: _Path) -> bool:
            # a freshly extended path can only die at its tail
            n = len(p.arrows)
            for d in dead:
                k = len(d)
                if k <= n and p.arrows[n - k:] == d:
                    return False
            return True

        paths, by_len = _enumerate_paths(q, length_bound + 1, alive=alive)
        if by_len[-1] and len(by_len) == length_bound + 2:
            raise AlgebraError(
                f"alive paths of length {length_bound + 1} remain; "
                f"algebra not finite-dimensional within bound {length_bound}")
        reps = paths
        index = {(p.arrows if p.arrows else (p.src,)): i for i, p in enumerate(reps)}

        def reduce_path(arrows, src, dst):
            # a monomial-bound path is either a basis element or zero
            n = len(arrows)
            for d in dead:
                k = len(d)
                for s in range(n - k + 1):
                    if arrows[s:s + k] == d:
                        return None
            return index[arrows if arrows else (src,)]

        dim = len(reps)
        table = [[None] * dim for _ in range(dim)]
        zero_vec = F.zeros(dim, 1)[:, 0]
        for i, p in enumerate(reps):
            for j, r in enumerate(reps):
                # p * r means: traverse r, then p
                if r.dst != p.src:
                    table[i][j] = zero_vec.copy()
                    continue
                hit = reduce_path(r.arrows + p.arrows, r.src, p.dst)
                v = F.zeros(dim, 1)[:, 0]
                if hit is not None:
                    v[hit] = F.of(1)
                table[i][j] = v
    else:
        reps, table, dim = _eliminated_path_basis(q, rel_paths, length_bound)

    labels = [_path_label(q, p) for p in reps]
    unit = [F.of(1) if len(p) == 0 else F.of(0) for p in reps]
    idem = []
    for v in q.vertices:
        idem.append([F.of(1) if (len(p) == 0 and p.src == v) else F.of(0)
                     for p in reps])
    rad_cols = [i for i, p in enumerate(reps) if len(p) >= 1]
    rad = Matrix.zeros(F, dim, len(rad_cols))
    for k, i in enumerate(rad_cols):
        rad.a[i, k] = F.of(1)
    A = Algebra(F, labels, table, unit, idem, rad, name=name or "kQ/I")
    A.quiver = q
    return A


def _eliminated_path_basis(q: QuiverPresentation, rel_paths, length_bound):
    """Bounded elimination for non-monomial relation ideals."""
    F = q.field
    max_rel = max(max(len(p) for _, p in rel) for rel in rel_paths)

    def level_data(L):
        paths, _ = _enumerate_paths(q, L)
        # longest paths first so elimination rewrites long paths into short ones
        order = sorted(range(len(paths)),
                       key=lambda i: (-len(paths[i].arrows), paths[i].arrows, paths[i].src))
        paths = [paths[i] for i in order]
        coord = {(p.arrows, p.src): i for i, p in enumerate(paths)}
        gens = []
        for rel in rel_paths:
            worst = max(len(p) for _, p in rel)
            rel_src = q.arrows[rel[0][1][0]][1]
            rel_dst = q.arrows[rel[0][1][-1]][2]
            for v in paths:
                if v.dst != rel_src:
                    continue
                for u in paths:
                    if u.src != rel_dst:
                        continue
                    if len(v) + worst + len(u) > L:
                        continue
                    vec = F.zeros(len(paths), 1)[:, 0]
                    for c, mid in rel:
                        w = v.arrows + mid + u.arrows
                        vec[coord[(w, v.src)]] += c
                    if F.is_prime_field:
                        vec %= F.p
                    gens.append(vec)
        return paths, Matrix.from_columns(F, len(paths),
                                          [g.reshape(-1, 1) for g in gens])

    prev_dim = None
    stable_at = None
    dims = {}
    for L in range(max_rel, length_bound + 1):
        paths, span = level_data(L)
        dims[L] = len(paths) - rank(span)
        if prev_dim is not None and dims[L] == prev_dim and L - 1 in dims \
                and L - 2 in dims and dims[L - 2] == dims[L - 1] == dims[L]:
            stable_at = L - 2
            break
        prev_dim = dims[L]
    if stable_at is None:
        raise AlgebraError(
            f"quotient dimension did not stabilize for two consecutive lengths "
            f"within bound {length_bound}: dims {dims}")

    top_level = stable_at + 2
    paths, span = level_data(top_level)
    reps_mat, proj = quotient_reps(len(paths), span)
    rep_idx = [int(np.nonzero(reps_mat.a[:, k] != F.of(0))[0][0])
               for k in range(reps_mat.cols)]
    reps = [paths[i] for i in rep_idx]
    if any(len(p) > stable_at for p in reps):
        raise AlgebraError("representatives exceed the stabilized length; "
                           "elimination bound too small")
    dim = len(reps)
    coord = {(p.arrows, p.src): i for i, p in enumerate(paths)}

    # left-multiplication by each arrow, expressed on the representatives
    arrow_mats = []
    for ai, (nm, src, dst) in enumerate(q.arrows):
        m = F.zeros(dim, dim)
        for j, p in enumerate(reps):
            if p.dst != src:
                continue
            w = (p.arrows + (ai,), p.src)
            m[:, j] = proj.a[:, coord[w]]
        if F.is_prime_field:
            m %= F.p
        arrow_mats.append(Matrix(F, m))

    vert_mats = []
    for v in q.vertices:
        m = F.zeros(dim, dim)
        for j, p in enumerate(reps):
            if p.dst == v:
                m[j, j] = F.of(1)
        vert_mats.append(Matrix(F, m))
    vidx = {v: i for i, v in enumerate(q.vertices)}

    table = []
    for i, p in enumerate(reps):
        row = []
        Ms = [arrow_mats[a] for a in p.arrows] or [vert_mats[vidx[p.src]]]
        for j, r in enumerate(reps):
            vec = F.zeros(dim, 1)
            vec[j, 0] = F.of(1)
            out = Matrix(F, vec)
            if p.arrows:
                for Mstep in Ms:
                    out = Mstep * out
            else:
                out = Ms[0] * out
            row.append(out.a[:, 0])
        table.append(row)
    return reps, table, dim


def algebra_from_table(field: Field, labels, products, unit, idempotents,
                       radical, name: str = "") -> Algebra:
    """Algebra from explicit structure constants.

    ``products[(i, j)]`` lists the coordinates of basis_i * basis_j; missing
    pairs default to zero.  All invariants are verified at load time.
    """
    dim = len(labels)
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            coords = products.get((i, j), [0] * dim)
            if len(coords) != dim:
                raise AlgebraError(f"product ({i},{j}) has {len(coords)} coordinates, "
                                   f"expected {dim}")
            row.append(field.array([[field.of(c) for c in coords]]).reshape(dim))
        table.append(row)
    rad = Matrix.from_columns(field, dim, [
        Matrix.column(field, coords).a for coords in radical])
    return Algebra(field, labels, table,
                   [field.of(c) for c in unit],
                   [[field.of(c) for c in e] for e in idempotents],
                   rad, name=name)


# ----------------------------------------------------------------------
# Modules and morphisms
# ----------------------------------------------------------------------

class Module:
    """A finite-dimensional left module: one action matrix per basis element.

    ``action`` is a tuple of read-only matrices, so the structure, and with
    it :attr:`key`, never changes after construction.  The matrices passed
    in are frozen in place, not copied: a caller that still holds one can
    read it but no longer write to it.  Equality and hashing both follow
    the structure over one algebra, so equal modules are one set element.
    """

    def __init__(self, algebra: Algebra, dim: int, action, name: str = "",
                 _skip_checks: bool = False):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self.name = name
        self._key = None
        if not _skip_checks:
            self._validate()
        for m in self.action:
            m.a.setflags(write=False)

    def _validate(self):
        A, F = self.algebra, self.algebra.field
        if len(self.action) != A.dim:
            raise ModuleError(f"{self.name}: expected {A.dim} action matrices")
        for m in self.action:
            if m.rows != self.dim or m.cols != self.dim:
                raise ModuleError(f"{self.name}: action matrix has wrong shape")
            if m.field != F:
                raise ModuleError(f"{self.name}: action matrix over wrong field")
        for i in range(A.dim):
            for j in range(A.dim):
                rhs = self.act(Matrix(F, A.table[i][j].reshape(A.dim, 1)))
                if self.action[i] * self.action[j] != rhs:
                    raise ModuleError(
                        f"{self.name}: action violates structure constants at ({i},{j})")
        if self.act(self.algebra.unit) != Matrix.identity(F, self.dim):
            raise ModuleError(f"{self.name}: unit does not act as identity")

    def act(self, coords: Matrix) -> Matrix:
        """Action of the algebra element with the given coordinate column."""
        return combine(coords, self.action, self.dim, self.dim)

    def __eq__(self, other):
        if not isinstance(other, Module):
            return NotImplemented
        return self.algebra is other.algebra and self.key == other.key

    def __hash__(self):
        return hash((id(self.algebra), self.key))

    @property
    def key(self):
        """(dim, action entries as bytes): equal exactly when the structures
        over one algebra are equal; the name is ignored.  Computed once:
        the action is read-only.  See :meth:`Matrix.entry_bytes`."""
        if self._key is None:
            self._key = self.dim, b";".join(m.entry_bytes() for m in self.action)
        return self._key

    def __repr__(self):
        return f"Module({self.name or '?'}, dim={self.dim})"

    def is_zero(self):
        return self.dim == 0


class ModuleMap:
    """A module homomorphism, stored as a target.dim x source.dim matrix."""

    def __init__(self, source: Module, target: Module, matrix: Matrix,
                 name: str = "", _skip_checks: bool = False):
        if source.algebra is not target.algebra:
            raise ModuleError("source and target over different algebras")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.name = name
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ModuleError(
                f"map matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{target.dim}x{source.dim}")
        if not _skip_checks:
            self._validate()

    def _validate(self):
        for b in range(self.source.algebra.dim):
            if self.target.action[b] * self.matrix != self.matrix * self.source.action[b]:
                raise ModuleError(
                    f"matrix does not intertwine basis element "
                    f"{self.source.algebra.labels[b]}")

    def __mul__(self, other: "ModuleMap") -> "ModuleMap":
        if other.target is not self.source and other.target != self.source:
            raise ModuleError("maps not composable")
        return ModuleMap(other.source, self.target, self.matrix * other.matrix,
                         _skip_checks=True)

    def _parallel(self, other: "ModuleMap"):
        # equal ends may be distinct objects (co-angled gluing adds such maps)
        if (other.source is not self.source and other.source != self.source
                or other.target is not self.target and other.target != self.target):
            raise ModuleError(f"maps {self} and {other} are not parallel")

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        self._parallel(other)
        return ModuleMap(self.source, self.target, self.matrix + other.matrix,
                         _skip_checks=True)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        self._parallel(other)
        return ModuleMap(self.source, self.target, self.matrix - other.matrix,
                         _skip_checks=True)

    def __neg__(self):
        return ModuleMap(self.source, self.target, -self.matrix, _skip_checks=True)

    def __eq__(self, other):
        if not isinstance(other, ModuleMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    def is_zero(self):
        return self.matrix.is_zero()

    def rank(self):
        return rank(self.matrix)

    def is_injective(self):
        return self.rank() == self.source.dim

    def is_surjective(self):
        return self.rank() == self.target.dim

    def __repr__(self):
        return (f"ModuleMap({self.name or '?'}: {self.source.name or '?'} -> "
                f"{self.target.name or '?'})")


def identity_map(M: Module) -> ModuleMap:
    return ModuleMap(M, M, Matrix.identity(M.algebra.field, M.dim), _skip_checks=True)


def zero_map(M: Module, N: Module) -> ModuleMap:
    return ModuleMap(M, N, Matrix.zeros(M.algebra.field, N.dim, M.dim),
                     _skip_checks=True)


def zero_module(A: Algebra) -> Module:
    return Module(A, 0, [Matrix.zeros(A.field, 0, 0)] * A.dim, name="0",
                  _skip_checks=True)


# ----------------------------------------------------------------------
# Hom spaces
# ----------------------------------------------------------------------

def hom_space(M: Module, N: Module):
    """Deterministic basis of Hom_A(M, N) as a list of ModuleMaps.

    Solves the intertwining system against the algebra generators; the
    kernel-basis order of exactlin fixes the basis.
    """
    if M.algebra is not N.algebra:
        raise ModuleError("modules over different algebras")
    A, F = M.algebra, M.algebra.field
    if M.dim == 0 or N.dim == 0:
        return []
    n = M.dim * N.dim
    blocks = []
    I_m = Matrix.identity(F, M.dim)
    I_n = Matrix.identity(F, N.dim)
    for g in A.generators():
        gM = M.act(g)
        gN = N.act(g)
        blocks.append((gN.kron(I_m) - I_n.kron(gM.transpose())).a)
    sys = Matrix(F, np.vstack(blocks)) if blocks else Matrix.zeros(F, 0, n)
    K = kernel_basis(sys)
    out = []
    for k in range(K.cols):
        mat = Matrix(F, K.a[:, k].reshape(N.dim, M.dim).copy())
        out.append(ModuleMap(M, N, mat))
    return out


def hom_dim(M: Module, N: Module) -> int:
    return len(hom_space(M, N))


def random_hom(rng, M: Module, N: Module) -> ModuleMap:
    """A random morphism: random field coefficients against the hom basis."""
    F = M.algebra.field
    basis = hom_space(M, N)
    coeffs = [rng.randrange(F.p) if F.is_prime_field else rng.randint(-3, 3)
              for _ in basis]
    return ModuleMap(M, N, combine(Matrix.column(F, coeffs),
                                   [h.matrix for h in basis], N.dim, M.dim),
                     _skip_checks=True)


# the most coefficient vectors of a hom basis that are ever enumerated
_ENUM_CAP = 4096


def indecomposable_summands(M: Module):
    """Split M into indecomposables by finding idempotent endomorphisms.

    Over a small prime field the endomorphism coefficients are enumerated
    exhaustively (up to ``_ENUM_CAP`` candidates), so indecomposability of
    the returned summands is certified; if the space is too large to
    enumerate, an error is raised rather than returning an uncertified answer.
    """
    if M.dim == 0:
        return []
    F = M.algebra.field
    ends = hom_space(M, M)
    h = len(ends)
    if h == 1:
        return [M]
    if not F.is_prime_field or F.p ** h > _ENUM_CAP:
        raise ModuleError(
            f"cannot certify a decomposition of {M.name or M}: endomorphism "
            f"space too large to enumerate")
    I = Matrix.identity(F, M.dim)
    mats = [b.matrix for b in ends]
    for coeffs in product(range(F.p), repeat=h):
        E = combine(Matrix.column(F, coeffs), mats, M.dim, M.dim)
        if E * E != E or E.is_zero() or E == I:
            continue
        img, _ = submodule(M, column_space_basis(E), name=f"{M.name}|im")
        ker, _ = submodule(M, kernel_basis(E), name=f"{M.name}|ker")
        return indecomposable_summands(img) + indecomposable_summands(ker)
    return [M]


def is_isomorphic(M: Module, N: Module) -> bool:
    """Isomorphism test: random combinations of the hom basis, certified by rank.

    Over a small prime field the coefficient space is enumerated exhaustively
    when feasible, making the negative answer exact as well.
    """
    if M.dim != N.dim:
        return False
    if M.dim == 0:
        return True
    basis = hom_space(M, N)
    if not basis:
        return False
    F = M.algebra.field
    h = len(basis)
    mats = [b.matrix for b in basis]

    def check(coeffs):
        return rank(combine(Matrix.column(F, coeffs), mats, N.dim, M.dim)) == M.dim

    if F.is_prime_field and F.p ** h <= _ENUM_CAP:
        return any(check(c) for c in product(range(F.p), repeat=h))
    import random as _random
    rng = _random.Random(0)
    for _ in range(200):
        if F.is_prime_field:
            coeffs = [rng.randrange(F.p) for _ in range(h)]
        else:
            coeffs = [rng.randint(-5, 5) for _ in range(h)]
        if check(coeffs):
            return True
    return False


# ----------------------------------------------------------------------
# Submodules, quotients, kernels, images
# ----------------------------------------------------------------------

def submodule(M: Module, span: Matrix, name: str = ""):
    """The submodule on the given (independent) columns; returns (S, incl)."""
    A, F = M.algebra, M.algebra.field
    if rank(span) != span.cols:
        raise ModuleError("submodule span columns are dependent")
    action = []
    for b in range(A.dim):
        X = solve(span, M.action[b] * span)
        if X is None:
            raise ModuleError("span is not action-stable")
        action.append(X)
    S = Module(A, span.cols, action, name=name, _skip_checks=True)
    return S, ModuleMap(S, M, span, _skip_checks=True)


def quotient_module(M: Module, span: Matrix, name: str = ""):
    """The quotient by the column span; returns (Q, proj, reps)."""
    A, F = M.algebra, M.algebra.field
    reps, proj = quotient_reps(M.dim, span)
    action = [proj * M.action[b] * reps for b in range(A.dim)]
    Q = Module(A, reps.cols, action, name=name, _skip_checks=True)
    return Q, ModuleMap(M, Q, proj, _skip_checks=True), reps


def kernel_module(f: ModuleMap, name: str = ""):
    K = kernel_basis(f.matrix)
    return submodule(f.source, K, name=name or f"ker({f.name})")


def image_module(f: ModuleMap, name: str = ""):
    span = column_space_basis(f.matrix)
    I, incl = submodule(f.target, span, name=name or f"im({f.name})")
    corestrict = solve(span, f.matrix)
    return I, incl, ModuleMap(f.source, I, corestrict, _skip_checks=True)


def cokernel_module(f: ModuleMap, name: str = ""):
    span = column_space_basis(f.matrix)
    C, proj, _ = quotient_module(f.target, span, name=name or f"coker({f.name})")
    return C, proj


def direct_sum(mods, name: str = ""):
    """Block sum; returns (S, injections, projections)."""
    if not mods:
        raise ModuleError("empty direct sum needs an algebra; use zero_module")
    A, F = mods[0].algebra, mods[0].algebra.field
    dim = sum(m.dim for m in mods)
    action = [Matrix.block_diag(F, [m.action[b] for m in mods])
              for b in range(A.dim)]
    S = Module(A, dim, action, name=name or "(+)".join(m.name or "?" for m in mods),
               _skip_checks=True)
    injs, projs = [], []
    off = 0
    for m in mods:
        inj = Matrix.zeros(F, dim, m.dim)
        prj = Matrix.zeros(F, m.dim, dim)
        for i in range(m.dim):
            inj.a[off + i, i] = F.of(1)
            prj.a[i, off + i] = F.of(1)
        injs.append(ModuleMap(m, S, inj, _skip_checks=True))
        projs.append(ModuleMap(S, m, prj, _skip_checks=True))
        off += m.dim
    return S, injs, projs


# ----------------------------------------------------------------------
# Simples, projectives, injectives, covers, envelopes
# ----------------------------------------------------------------------

def simples(A: Algebra):
    """The simple modules S_i = top of A e_i, one per idempotent; 1-dimensional."""
    coeffs = A.semisimple_coefficients()
    out = []
    for i in range(A.n_idempotents):
        action = [Matrix(A.field, np.array([[coeffs.a[i, b]]], dtype=coeffs.a.dtype))
                  for b in range(A.dim)]
        out.append(Module(A, 1, action, name=f"S{i + 1}"))
    return out


def projective_indecs(A: Algebra):
    """P_i = A e_i inside the regular module.

    The modules are built once per algebra, and their inclusion matrices
    into A are kept for ``projective_cover``; each call returns a new list
    of the same objects.
    """
    if A._projs is None:
        reg = A.regular_module()
        projs, incls = [], []
        for i, e in enumerate(A.idempotents):
            Re = A.mult_by(e, "right")   # a |-> a e_i, a left-module map
            P, incl, _ = image_module(ModuleMap(reg, reg, Re), name=f"P{i + 1}")
            projs.append(P)
            incls.append(incl.matrix)
        A._projs, A._proj_incls = projs, incls
    return list(A._projs)


def _radical_actions(M: Module):
    """The arrays of M.act(J_k), one per spanning column J_k of rad A."""
    F, J = M.algebra.field, M.algebra.radical_span
    return [M.act(Matrix(F, J.a[:, [k]])).a for k in range(J.cols)]


def _radical_span(M: Module) -> Matrix:
    """The nonzero columns of all M.act(J_k) side by side; they span JM.

    Zero columns are never pivots, so dropping them leaves the span and
    its column_space_basis unchanged and shrinks every elimination on it.
    """
    F = M.algebra.field
    cols = Matrix.from_columns(F, M.dim, _radical_actions(M)).a
    return Matrix(F, cols[:, np.any(cols != F.of(0), axis=0)])


def rad(M: Module):
    """(JM, inclusion)."""
    return submodule(M, column_space_basis(_radical_span(M)), name=f"rad({M.name})")


def top(M: Module):
    """(M/JM, projection, reps)."""
    return quotient_module(M, column_space_basis(_radical_span(M)), name=f"top({M.name})")


def socle(M: Module):
    """({m : Jm = 0}, inclusion)."""
    F = M.algebra.field
    stacked = Matrix(F, np.vstack([F.zeros(0, M.dim), *_radical_actions(M)]))
    return submodule(M, kernel_basis(stacked), name=f"soc({M.name})")


def projective_cover(M: Module):
    """The minimal deflation from a projective; returns (P, deflation).

    P = direct sum of P_i with the multiplicity of S_i in top(M); the lifted
    map is checked surjective with kernel inside rad P.
    """
    A, F = M.algebra, M.algebra.field
    if M.dim == 0:
        Z = zero_module(A)
        return Z, ModuleMap(Z, M, Matrix.zeros(F, 0, 0), _skip_checks=True)
    where = f"projective cover of {M.name or '?'} (dim {M.dim})"
    T, q, _ = top(M)
    projs = projective_indecs(A)
    summands = []
    blocks = []
    for i, e in enumerate(A.idempotents):
        Vi = column_space_basis(T.act(e))
        if Vi.cols == 0:
            continue
        # lift all top generators at vertex i with one elimination
        V = solve(q.matrix, Vi)
        if V is None:
            raise ModuleError(f"{where}: projection preimage failed at vertex {i + 1}")
        W = M.act(e) * V
        # P_i lives inside A: its basis vectors are algebra elements; basis
        # vector k of the copy of P_i for generator t maps to p_k * W[:, t]
        incl = A._proj_incls[i]
        images = np.stack([(M.act(Matrix(F, incl.a[:, [k]])) * W).a
                           for k in range(incl.cols)], axis=2)
        summands.extend([projs[i]] * Vi.cols)
        blocks.append(images.reshape(M.dim, Vi.cols * incl.cols))
    if not summands:
        raise ModuleError(f"{M.name}: zero top on a nonzero module")
    P, _, _ = direct_sum(summands, name=f"P({M.name})")
    mat = Matrix(F, np.hstack(blocks))
    f = ModuleMap(P, M, mat)
    if not f.is_surjective():
        raise ModuleError(f"{where}: lift is not surjective")
    # kernel inside rad P, tested on the span of the columns of J.P
    ker = kernel_basis(mat)
    radspan = _radical_span(P)
    if rank(radspan.hstack(ker)) != rank(radspan):
        raise ModuleError(f"{where}: not minimal, kernel not in rad P")
    return P, f


def injective_envelope(M: Module):
    """The minimal inflation into an injective; returns (I, inflation).

    Computed as the dual of the projective cover of the dual module over the
    opposite algebra.
    """
    A = M.algebra
    DM = dual_module(M)
    P, cov = projective_cover(DM)
    I = dual_module(P)
    inflation = ModuleMap(M, I, cov.matrix.transpose())
    if not inflation.is_injective():
        raise ModuleError("injective envelope is not injective")
    return I, inflation


def injective_indecs(A: Algebra):
    """I_i = dual of the i-th projective over the opposite algebra."""
    out = []
    for i, P in enumerate(projective_indecs(A.opposite())):
        I = dual_module(P)
        I.name = f"I{i + 1}"
        out.append(I)
    return out


# ----------------------------------------------------------------------
# Duality with the opposite algebra
# ----------------------------------------------------------------------

def dual_module(M: Module) -> Module:
    """D(M) = Hom_k(M, k) as a module over the opposite algebra."""
    op = M.algebra.opposite()
    action = [m.transpose() for m in M.action]
    return Module(op, M.dim, action, name=f"D({M.name})", _skip_checks=True)


def dual_map(f: ModuleMap) -> ModuleMap:
    return ModuleMap(dual_module(f.target), dual_module(f.source),
                     f.matrix.transpose(), _skip_checks=True)


# ----------------------------------------------------------------------
# Pullbacks and pushouts
# ----------------------------------------------------------------------

def pullback(f: ModuleMap, g: ModuleMap):
    """Pullback of f: X -> Z, g: Y -> Z; returns (W, p_X, p_Y)."""
    if f.target != g.target:
        raise ModuleError("pullback targets differ")
    S, injs, projs = direct_sum([f.source, g.source])
    h = ModuleMap(S, f.target, f.matrix.hstack(-g.matrix), _skip_checks=True)
    W, incl = kernel_module(h, name=f"pb({f.name},{g.name})")
    return W, projs[0] * incl, projs[1] * incl


def pushout(f: ModuleMap, g: ModuleMap):
    """Pushout of f: Z -> X, g: Z -> Y; returns (W, i_X, i_Y)."""
    if f.source != g.source:
        raise ModuleError("pushout sources differ")
    S, injs, _ = direct_sum([f.target, g.target])
    h = ModuleMap(f.source, S, f.matrix.vstack(-g.matrix), _skip_checks=True)
    W, proj = cokernel_module(h, name=f"po({f.name},{g.name})")
    return W, proj * injs[0], proj * injs[1]


def mediating_map_pullback(pX: ModuleMap, pY: ModuleMap, cX: ModuleMap,
                           cY: ModuleMap):
    """The unique map into the pullback W = pX.source through a competing
    cone (cX, cY), by solve; None if the cone does not factor."""
    F = pX.matrix.field
    sys = Matrix(F, np.vstack([pX.matrix.a, pY.matrix.a]))
    # mediating m: cX.source -> W with pX m = cX and pY m = cY, solved columnwise
    rhs = Matrix(F, np.vstack([cX.matrix.a, cY.matrix.a]))
    X = solve(sys, rhs)
    if X is None:
        return None
    return ModuleMap(cX.source, pX.source, X)


# ----------------------------------------------------------------------
# Conflations
# ----------------------------------------------------------------------

class Conflation:
    """An exact sequence X_t -> X_{t-1} -> ... -> X_0 -> X_{-1} of length t.

    ``modules`` lists [X_t, ..., X_0, X_{-1}] and ``maps`` the t+1 arrows
    left to right.  Exactness at every point, injectivity of the inflation
    and surjectivity of the deflation are verified; this makes the sequence
    a splice of t length-1 conflations.
    """

    def __init__(self, modules, maps, _skip_checks: bool = False):
        self.modules = list(modules)
        self.maps = list(maps)
        self.length = len(self.modules) - 2
        if self.length < 1:
            raise ConflationError("conflation needs length >= 1")
        if len(self.maps) != self.length + 1:
            raise ConflationError("map count does not match module count")
        if not _skip_checks:
            self._validate()

    @property
    def left(self) -> Module:
        return self.modules[0]

    @property
    def right(self) -> Module:
        return self.modules[-1]

    @property
    def middles(self):
        return self.modules[1:-1]

    def _validate(self):
        for i, (m, src, dst) in enumerate(zip(self.maps, self.modules, self.modules[1:])):
            if m.source != src or m.target != dst:
                raise ConflationError(f"map {i} endpoints do not match modules")
        if not self.maps[0].is_injective():
            raise ConflationError("left map is not injective")
        if not self.maps[-1].is_surjective():
            raise ConflationError("right map is not surjective")
        for i in range(len(self.maps) - 1):
            comp = self.maps[i + 1] * self.maps[i]
            if not comp.is_zero():
                raise ConflationError(f"maps {i} and {i + 1} do not compose to zero")
            mid = self.modules[i + 1]
            if self.maps[i].rank() + self.maps[i + 1].rank() != mid.dim:
                raise ConflationError(
                    f"not exact at position {i + 1} "
                    f"(module {mid.name or mid}): rank defect")

    def __repr__(self):
        names = " -> ".join(m.name or f"dim{m.dim}" for m in self.modules)
        return f"Conflation({names})"


def check_conflation(modules, maps) -> Conflation:
    return Conflation(modules, maps)


def splice(a: Conflation, b: Conflation) -> Conflation:
    """Splice a (ending at L) with b (starting at L); lengths add.

    The joint map is inflation(b) composed with deflation(a); exactness is
    re-verified at the joint by the constructor.
    """
    if a.right != b.left:
        raise ConflationError("splice ends do not match")
    joint = b.maps[0] * a.maps[-1]
    modules = a.modules[:-1] + b.modules[1:]
    maps = a.maps[:-1] + [joint] + b.maps[1:]
    return Conflation(modules, maps)


def dual_conflation(c: Conflation) -> Conflation:
    mods = [dual_module(m) for m in reversed(c.modules)]
    maps = [dual_map(f) for f in reversed(c.maps)]
    return Conflation(mods, maps, _skip_checks=True)
