"""Resolutions, syzygies, Ext spaces and extension elements.

The canonical carrier of a degree-n extension class is a cocycle on the
minimal projective resolution of its right end; explicit n-fold exact
sequences are derived views, and the two directions
(:func:`sequence_from_element` / :func:`class_from_sequence`) are mutually
inverse up to coboundary.  Pull-back, push-out and Baer sum exist in both
representations, deliberately: the sequence-level constructions act as an
independent oracle for the cocycle arithmetic.

Every chain map (the lift of a morphism to resolutions, the class of an
explicit sequence, the connecting maps and the syzygy shift) is computed
by one comparison-theorem step, :meth:`Resolver.comparison_lift`.
Every other induced map (out of a pushout, into a pullback, or a cocycle
factored through the cover P_n ->> syz^n) comes from
:func:`~stablext.algmod.factor_through` or
:func:`~stablext.algmod.lift_through`.

Structure that every query needs is built by constructors, once: an
:class:`~stablext.algmod.Algebra` builds its multiplication matrices,
opposite algebra, generators, regular module and projectives, and a
:class:`Resolver` or ``FrobeniusContext`` builds its opposite, linked both
ways.  Every other cache in the package is a :class:`Memo`: one per
resolver (resolutions, coresolutions via the opposite algebra, duals, hom
bases, Ext spaces, chain lifts) and one per context.  Each keys a module
or map by its structure and anything else by identity, so equal modules
built as distinct objects share every entry; only a hom basis also keys
the identity of its two modules.  All of them, and the in-place growth of
resolutions and chain lifts, are serialized by one lock shared by a
resolver, its opposite and their contexts; reads of cached data are
lock-free, and each entry is built once.  Only :attr:`Module.key` and
:meth:`Resolution.diff` are filled in on first use; their docstrings say
why.
"""

from __future__ import annotations

import threading

from .exactlin import Matrix, combine, kernel_basis, quotient_reps, rank, solve
from .algmod import (
    Algebra, Conflation, ConflationError, Module, ModuleMap,
    column_space_basis, direct_sum, dual_module, factor_through, hom_space,
    kernel_module, lift_through, projective_cover, pushout, pullback, splice,
    zero_map, zero_module,
)

__all__ = [
    "ResolutionBoundError", "Resolution", "Coresolution", "Memo", "Resolver",
    "ExtSpace", "ExtElement", "CosetMap",
    "min_proj_resolution", "min_inj_coresolution",
    "sequence_from_element", "class_from_sequence",
    "baer_sum", "pull_back", "push_out",
    "pullback_sequence", "pushout_sequence", "baer_sum_sequence",
    "direct_sum_conflation", "connecting_map",
]


def min_proj_resolution(resolver: "Resolver", M, length: int) -> "Resolution":
    """The cached minimal projective resolution, extended to the given length."""
    return resolver.resolution(M).extend(length)


def min_inj_coresolution(resolver: "Resolver", M, length: int) -> "Coresolution":
    """The cached minimal injective coresolution, extended to the given length."""
    cores = resolver.coresolution(M)
    cores.op_res.extend(length)
    return cores


class ResolutionBoundError(RuntimeError):
    pass


class Resolution:
    """Minimal projective resolution, built one cover at a time.

    ``terms[k]`` is P_k, ``covers[k]`` the deflation P_k -> K_k onto the
    k-th syzygy (K_0 = M), ``incls[k]`` the inclusion K_{k+1} -> P_k and
    ``diff(k)`` the composite P_k -> P_{k-1}.  Once some syzygy is zero the
    resolution is finished and all later terms are zero.
    """

    def __init__(self, resolver: "Resolver", M: Module):
        self.resolver = resolver
        self.module = M
        self.syzygies = [M]
        self.terms = []
        self.covers = []
        self.incls = []
        self._diffs = {}
        self.finished = M.dim == 0

    def extend(self, length: int):
        if len(self.terms) > length or self.finished:
            return self
        with self.resolver._lock:
            while len(self.terms) <= length and not self.finished:
                if len(self.terms) > self.resolver.bound:
                    raise ResolutionBoundError(
                        f"resolution of {self.module.name or self.module} "
                        f"exceeded bound {self.resolver.bound}")
                K = self.syzygies[-1]
                P, cover = projective_cover(K)
                ker, incl = kernel_module(cover,
                                          name=f"syz{len(self.terms) + 1}"
                                               f"({self.module.name})")
                # terms last: a reader that sees P_k also sees its cover,
                # inclusion and syzygy
                self.covers.append(cover)
                self.incls.append(incl)
                self.syzygies.append(ker)
                self.terms.append(P)
                if ker.dim == 0:
                    self.finished = True
        return self

    def term(self, k: int) -> Module:
        self.extend(k)
        if k < len(self.terms):
            return self.terms[k]
        return zero_module(self.module.algebra)

    def syzygy(self, k: int) -> Module:
        self.extend(k)
        if k < len(self.syzygies):
            return self.syzygies[k]
        return zero_module(self.module.algebra)

    def cover(self, k: int) -> ModuleMap:
        """The deflation P_k -> K_k."""
        self.extend(k)
        if k < len(self.covers):
            return self.covers[k]
        return zero_map(zero_module(self.module.algebra), self.syzygy(k))

    def incl(self, k: int) -> ModuleMap:
        """The inclusion K_{k+1} -> P_k."""
        self.extend(k)
        if k < len(self.incls):
            return self.incls[k]
        return zero_map(self.syzygy(k + 1), self.term(k))

    def diff(self, k: int) -> ModuleMap:
        """d_k: P_k -> P_{k-1} (k >= 1), computed on first use and kept.

        Not built by ``extend``: that would add one product per step to
        every resolution, and the deep ones made only to bound a projective
        dimension never read their differentials.
        """
        d = self._diffs.get(k)
        if d is None:
            d = self.incl(k - 1) * self.cover(k)
            # past the last term the map runs between fresh zero modules,
            # as term(k) gives them: only the real differentials are kept
            if k < len(self.terms):
                d = self._diffs.setdefault(k, d)
        return d

    def augmentation(self) -> ModuleMap:
        return self.cover(0)

    def maps(self, length: int):
        """The augmentation and d_1, ..., d_length: the maps a chain lift
        into this resolution must commute with."""
        return [self.augmentation()] + [self.diff(k) for k in range(1, length + 1)]

    def proj_dim(self, bound: int):
        """Least k with the k-th syzygy projective, or None beyond bound."""
        if self.module.dim == 0:
            return 0
        self.extend(bound)
        if self.finished:
            pd = len(self.terms) - 1
            return pd if pd <= bound else None
        return None

    def truncation(self, k: int) -> Conflation:
        """The unit conflation K_k -> P_{k-1} -> ... -> P_0 -> M."""
        if k < 1:
            raise ValueError("truncation needs k >= 1")
        self.extend(k)
        mods = [self.syzygy(k)] + [self.term(i) for i in range(k - 1, -1, -1)] \
            + [self.module]
        maps = [self.incl(k - 1)] + [self.diff(i) for i in range(k - 1, 0, -1)] \
            + [self.augmentation()]
        return Conflation(mods, maps, _skip_checks=True)


class Coresolution:
    """Minimal injective coresolution: a view of the resolution of the dual
    module over the opposite algebra, dualized term by term."""

    def __init__(self, resolver: "Resolver", M: Module):
        self.resolver = resolver
        self.module = M
        self.op_res = resolver.opposite().resolution(resolver.dual(M))

    def term(self, j: int) -> Module:
        """I^j for j >= 1."""
        return self.resolver.dual(self.op_res.term(j - 1))

    def cosyzygy(self, k: int) -> Module:
        return self.resolver.dual(self.op_res.syzygy(k))

    def inj_dim(self, bound: int):
        return self.op_res.proj_dim(bound)

    def truncation(self, k: int) -> Conflation:
        """The unit conflation M -> I^1 -> ... -> I^k -> cosyzygy_k: the
        dual of the opposite side's truncation."""
        return self.resolver.dual_conflation(self.op_res.truncation(k))


def _memo_key(x):
    """A module or map by its structure over its algebra (a map's matrix is
    read on each call), anything else by identity."""
    if isinstance(x, Module):
        return id(x.algebra), x.key
    if isinstance(x, ModuleMap):
        return (id(x.source.algebra), x.source.key, x.target.key,
                x.matrix.entry_bytes())
    return id(x)


class Memo:
    """A cache keyed by a kind tag, some objects and plain parameters.

    One rule keys the objects: a :class:`Module` or :class:`ModuleMap` by
    its structure (its algebra's identity, :attr:`Module.key` and a map's
    matrix entries), anything else by ``id()``.  So equal modules and maps
    built as distinct objects share one entry, built from the first of
    them.  Each entry is ``(value, *objects)``: it keeps that first call's
    objects alive, so the ids in the key stay valid, and falsy values are
    cached like any other.  A hit is a lock-free read; a miss is checked
    again and built under ``lock``, so every thread gets the one object
    built for a key.  The one exception, :meth:`Resolver.hom_basis`, also
    passes the ids of its two modules, so its maps run between the very
    objects asked for; its matrices are shared by structure (``hom_mats``).
    """

    def __init__(self, lock):
        self._lock = lock
        self._store = {}

    def __call__(self, kind: str, objects: tuple, build, *params):
        key = (kind, *map(_memo_key, objects), *params)
        hit = self._store.get(key)
        if hit is None:
            with self._lock:
                hit = self._store.get(key)
                if hit is None:
                    hit = self._store[key] = (build(), *objects)
        return hit[0]


class Resolver:
    """Cache holder for one algebra: resolutions, homs, Ext spaces, lifts."""

    def __init__(self, algebra: Algebra, bound: int = 12,
                 _opposite: "Resolver | None" = None):
        self.algebra = algebra
        self.bound = bound
        # one lock for both sides: a coresolution on one side resolves on
        # the other, so two locks could be taken in either order
        self._lock = _opposite._lock if _opposite else threading.RLock()
        self._memo = Memo(self._lock)
        self._op = _opposite or Resolver(algebra.opposite(), bound, _opposite=self)

    def opposite(self) -> "Resolver":
        """The resolver over the opposite algebra, sharing this one's lock."""
        return self._op

    def dual(self, M: Module) -> Module:
        if M.algebra is not self.algebra:
            return self.opposite().dual(M)

        def build():
            D = dual_module(M)
            # make the double dual come back as the original object
            self.opposite()._memo("dual", (D,), lambda: M)
            return D

        return self._memo("dual", (M,), build)

    def dual_map(self, f: ModuleMap) -> ModuleMap:
        """D(f): D(target) -> D(source) between the cached duals."""
        return ModuleMap(self.dual(f.target), self.dual(f.source),
                         f.matrix.transpose(), _skip_checks=True)

    def dual_conflation(self, c: Conflation) -> Conflation:
        """The dual conflation over the other side, on the cached duals."""
        return Conflation([self.dual(m) for m in reversed(c.modules)],
                          [self.dual_map(f) for f in reversed(c.maps)],
                          _skip_checks=True)

    def resolution(self, M: Module) -> Resolution:
        return self._memo("resolution", (M,), lambda: Resolution(self, M))

    def coresolution(self, M: Module) -> Coresolution:
        return self._memo("coresolution", (M,), lambda: Coresolution(self, M))

    def syzygy(self, M: Module, k: int) -> Module:
        return self.resolution(M).syzygy(k)

    def cosyzygy(self, M: Module, k: int) -> Module:
        return self.coresolution(M).cosyzygy(k)

    def hom_basis(self, M: Module, N: Module):
        return self._memo("hom", (M, N), lambda: _HomBasis(self, M, N),
                          id(M), id(N))

    def ext(self, M: Module, N: Module, n: int) -> "ExtSpace":
        return self._memo("ext", (M, N), lambda: ExtSpace(self, M, N, n), n)

    def lift(self, f: ModuleMap, length: int):
        """Chain maps f_k: P_k(source) -> P_k(target) over f, k <= length."""
        chain = self._memo("lift", (f,), list)
        if len(chain) > length:
            return chain
        with self._lock:
            src = self.resolution(f.source)
            posts = self.resolution(f.target).maps(length)
            return self.comparison_lift(src, f * src.augmentation(), posts,
                                        chain=chain)

    def comparison_lift(self, res: Resolution, first: ModuleMap, posts,
                        shift: int = 0, chain=None):
        """The comparison theorem along ``res`` through an exact complex.

        Returns the maps u_k: P_{k+shift} -> posts[k].source, k < len(posts),
        with posts[0] . u_0 = first and posts[k] . u_k = u_{k-1} . d_{k+shift}.
        ``chain`` holds u_0, u_1, ... computed earlier; it is extended in
        place from its current length.
        """
        chain = [] if chain is None else chain
        for k in range(len(chain), len(posts)):
            rhs = first if k == 0 else chain[k - 1] * res.diff(k + shift)
            uk = self.solve_hom(res.term(k + shift), posts[k].source, rhs,
                                post=posts[k])
            if uk is None:
                raise RuntimeError(
                    f"comparison lift failed in degree {k} (from P_{k + shift} "
                    f"of {res.module.name or res.module})")
            chain.append(uk)
        return chain

    # -- linear solves in hom spaces ---------------------------------

    def solve_hom(self, U: Module, V: Module, rhs: ModuleMap, post: ModuleMap):
        """phi in Hom(U, V) with post . phi = rhs, or None if there is none.

        Unlike :func:`~stablext.algmod.lift_through`, ``post`` need not be
        injective: any solution inside Hom(U, V) will do.
        """
        hb = self.hom_basis(U, V)
        if U.dim == 0 or V.dim == 0 or not hb.maps:
            return zero_map(U, V) if rhs.is_zero() else None
        cols = [(post.matrix * h.matrix).flatten().a for h in hb.maps]
        b = rhs.matrix.flatten()
        x = solve(Matrix.from_columns(self.algebra.field, b.rows, cols), b)
        if x is None:
            return None
        return hb.combine(x)


def _hom_matrices(M: Module, N: Module):
    """The matrices of the hom basis and their flattened coordinate matrix,
    read-only: one structure key shares them between module objects."""
    mats = [h.matrix for h in hom_space(M, N)]
    flat = Matrix.from_columns(M.algebra.field, M.dim * N.dim,
                               [m.flatten().a for m in mats])
    for m in mats + [flat]:
        m.a.setflags(write=False)
    return mats, flat


class _HomBasis:
    """Hom basis between two module objects plus its flattened coordinate
    matrix; the matrices are shared by every pair of equal structure."""

    def __init__(self, resolver: Resolver, M: Module, N: Module):
        self.source = M
        self.target = N
        mats, self.flat = resolver._memo("hom_mats", (M, N),
                                         lambda: _hom_matrices(M, N))
        self.maps = [ModuleMap(M, N, m, _skip_checks=True) for m in mats]

    @property
    def dim(self):
        return len(self.maps)

    def coords(self, f: ModuleMap) -> Matrix:
        x = solve(self.flat, f.matrix.flatten())
        if x is None:
            raise ValueError("map does not lie in the hom space")
        return x

    def combine(self, coeffs: Matrix) -> ModuleMap:
        mat = combine(coeffs, [h.matrix for h in self.maps],
                      self.target.dim, self.source.dim)
        return ModuleMap(self.source, self.target, mat, _skip_checks=True)


# ----------------------------------------------------------------------
# Ext spaces and elements
# ----------------------------------------------------------------------

class ExtSpace:
    """Ext^n(M, N) as cocycles modulo coboundaries on the minimal resolution.

    Degree 0 is Hom(M, N) with no coboundaries, so one coordinate system
    serves every degree.  Coset coordinates come from the deterministic
    quotient of exactlin, making all downstream bases reproducible.
    """

    def __init__(self, resolver: Resolver, M: Module, N: Module, n: int):
        if n < 0:
            raise ValueError("negative Ext degree")
        self.resolver = resolver
        self.M = M
        self.N = N
        self.n = n
        F = resolver.algebra.field
        if n == 0:
            self.hom = resolver.hom_basis(M, N)
            self.Z = Matrix.identity(F, self.hom.dim)
            self.B_in_Z = Matrix.zeros(F, self.hom.dim, 0)
        else:
            res = resolver.resolution(M)
            self.hom = resolver.hom_basis(res.term(n), N)
            up = resolver.hom_basis(res.term(n + 1), N)
            down = resolver.hom_basis(res.term(n - 1), N)
            D_up = _hom_precompose_matrix(self.hom, up, res.diff(n + 1))
            D_dn = _hom_precompose_matrix(down, self.hom, res.diff(n))
            self.Z = kernel_basis(D_up)
            img = column_space_basis(D_dn)
            B = solve(self.Z, img) if img.cols else Matrix.zeros(F, self.Z.cols, 0)
            if B is None:
                raise RuntimeError("coboundaries escape the cocycle space")
            self.B_in_Z = column_space_basis(B)
        self.reps_q, self.proj_q = quotient_reps(self.Z.cols, self.B_in_Z)

    @property
    def dim(self) -> int:
        return self.reps_q.cols

    def coords(self, elt: "ExtElement") -> Matrix:
        """Coset coordinates of an element (must match (M, N, n))."""
        if elt.n != self.n:
            raise ValueError(f"element has degree {elt.n}, space has {self.n}")
        if elt.M is not self.M and elt.M != self.M:
            raise ValueError("element has a different right end")
        if elt.N is not self.N and elt.N != self.N:
            raise ValueError("element has a different left end")
        z = solve(self.Z, self.hom.coords(elt.cocycle))
        if z is None:
            raise ValueError("cocycle fails the cocycle condition")
        return self.proj_q * z

    def element_from_coords(self, coords: Matrix) -> "ExtElement":
        # Z spans the cocycles, so Z.x is one
        z = self.Z * (self.reps_q * coords)
        return ExtElement(self.resolver, self.M, self.N, self.n,
                          self.hom.combine(z), _skip_checks=True)

    def basis_elements(self):
        F = self.resolver.algebra.field
        return [self.element_from_coords(Matrix.unit(F, self.dim, j))
                for j in range(self.dim)]


def _hom_precompose_matrix(src: _HomBasis, dst: _HomBasis, d: ModuleMap) -> Matrix:
    """Matrix of phi -> phi . d from src = Hom(P_{k-1}, N) to dst = Hom(P_k, N)."""
    cols = [dst.coords(ModuleMap(d.source, h.target, h.matrix * d.matrix,
                                 _skip_checks=True)).a for h in src.maps]
    return Matrix.from_columns(d.source.algebra.field, dst.dim, cols)


class ExtElement:
    """One element of Ext^n(M, N): a cocycle P_n(M) -> N (a plain morphism
    M -> N in degree 0)."""

    def __init__(self, resolver: Resolver, M: Module, N: Module, n: int,
                 cocycle: ModuleMap, _skip_checks: bool = False):
        self.resolver = resolver
        self.M = M
        self.N = N
        self.n = n
        self.cocycle = cocycle
        if not _skip_checks:
            if n == 0:
                if cocycle.source != M or cocycle.target != N:
                    raise ValueError("degree-0 element must be a map M -> N")
            else:
                res = resolver.resolution(M)
                if cocycle.source != res.term(n) or cocycle.target != N:
                    raise ValueError("cocycle has wrong endpoints")
                if not (cocycle * res.diff(n + 1)).is_zero():
                    raise ValueError("cocycle condition fails")

    def space(self) -> ExtSpace:
        return self.resolver.ext(self.M, self.N, self.n)

    def coords(self) -> Matrix:
        return self.space().coords(self)

    def is_coboundary(self) -> bool:
        return self.coords().is_zero()

    def same_class(self, other: "ExtElement") -> bool:
        return (self + (-other)).is_coboundary()

    def __add__(self, other: "ExtElement") -> "ExtElement":
        return baer_sum(self, other)

    def __neg__(self) -> "ExtElement":
        return ExtElement(self.resolver, self.M, self.N, self.n,
                          -self.cocycle, _skip_checks=True)

    def sequence(self) -> Conflation:
        """An explicit conflation in this class, built on each call."""
        return sequence_from_element(self)

    def __repr__(self):
        return (f"ExtElement(deg {self.n}: {self.M.name or '?'} ~> "
                f"{self.N.name or '?'})")


# ----------------------------------------------------------------------
# Element arithmetic (cocycle level)
# ----------------------------------------------------------------------

def baer_sum(a: ExtElement, b: ExtElement) -> ExtElement:
    if (a.M, a.N, a.n) != (b.M, b.N, b.n):
        raise ValueError("Baer sum needs matching ends and degree")
    return ExtElement(a.resolver, a.M, a.N, a.n, a.cocycle + b.cocycle,
                      _skip_checks=True)


def pull_back(gamma: ExtElement, h: ModuleMap) -> ExtElement:
    """gamma . h: the class pulled back along h: M' -> M."""
    if h.target != gamma.M:
        raise ValueError("pull-back end mismatch")
    if gamma.n == 0:
        return ExtElement(gamma.resolver, h.source, gamma.N, 0,
                          gamma.cocycle * h, _skip_checks=True)
    chain = gamma.resolver.lift(h, gamma.n)
    return ExtElement(gamma.resolver, h.source, gamma.N, gamma.n,
                      gamma.cocycle * chain[gamma.n], _skip_checks=True)


def push_out(l: ModuleMap, gamma: ExtElement) -> ExtElement:
    """l . gamma: the class pushed out along l: N -> N'."""
    if l.source != gamma.N:
        raise ValueError("push-out end mismatch")
    return ExtElement(gamma.resolver, gamma.M, l.target, gamma.n,
                      l * gamma.cocycle, _skip_checks=True)


# ----------------------------------------------------------------------
# Sequence <-> cocycle
# ----------------------------------------------------------------------

def sequence_from_element(gamma: ExtElement) -> Conflation:
    """An explicit n-fold conflation with the class of ``gamma``.

    Push-out of the truncated minimal resolution of M along the map
    syzygy -> N induced by the cocycle.
    """
    if gamma.n < 1:
        raise ValueError("degree-0 elements have no sequence form")
    res = gamma.resolver.resolution(gamma.M)
    n = gamma.n
    # cocycle kills im d_{n+1}, so it factors through the cover P_n ->> K_n
    g = factor_through((gamma.cocycle, res.cover(n)))
    return pushout_sequence(g, res.truncation(n))


def class_from_sequence(resolver: Resolver, c: Conflation) -> ExtElement:
    """Comparison-theorem lift of the minimal resolution of the right end
    through ``c``; returns the degree-t cocycle."""
    t = c.length
    M = c.right
    N = c.left
    res = resolver.resolution(M)
    # chain lift f_k: P_k -> X_k  (X_0, ..., X_{t-1} the middles, X_t = N)
    chain = resolver.comparison_lift(res, res.augmentation(), c.maps[::-1])
    return ExtElement(resolver, M, N, t, chain[-1], _skip_checks=True)


# ----------------------------------------------------------------------
# Sequence-level arithmetic (the oracle pair)
# ----------------------------------------------------------------------

def pullback_sequence(c: Conflation, h: ModuleMap) -> Conflation:
    """Pull back the right end of ``c`` along h: A' -> A."""
    if h.target != c.right:
        raise ConflationError("pull-back end mismatch")
    defl = c.maps[-1]
    W, pX, pA = pullback(defl, h)
    # X_1 maps into W through (d, 0)
    d1 = c.maps[-2]
    ext = lift_through((d1, pX), (zero_map(d1.source, h.source), pA))
    mods = c.modules[:-2] + [W, h.source]
    maps = c.maps[:-2] + [ext, pA]
    return Conflation(mods, maps)


def pushout_sequence(l: ModuleMap, c: Conflation) -> Conflation:
    """Push out the left end of ``c`` along l: B -> B'."""
    if l.source != c.left:
        raise ConflationError("push-out end mismatch")
    infl = c.maps[0]
    W, iX, iB = pushout(infl, l)
    # the induced map W -> X_{t-2} kills (infl b, -l b)
    d1 = c.maps[1]
    d = factor_through((d1, iX), (zero_map(l.target, d1.target), iB))
    mods = [l.target, W] + c.modules[2:]
    maps = [iB, d] + c.maps[2:]
    return Conflation(mods, maps)


def direct_sum_conflation(c: Conflation, d: Conflation) -> Conflation:
    if c.length != d.length:
        raise ConflationError("direct sum needs equal lengths")
    mods = []
    for mc, md in zip(c.modules, d.modules):
        S, _, _ = direct_sum([mc, md])
        mods.append(S)
    maps = []
    for i, (fc, fd) in enumerate(zip(c.maps, d.maps)):
        F = fc.matrix.field
        blk = Matrix.block_diag(F, [fc.matrix, fd.matrix])
        maps.append(ModuleMap(mods[i], mods[i + 1], blk, _skip_checks=True))
    return Conflation(mods, maps, _skip_checks=True)


def baer_sum_sequence(c: Conflation, d: Conflation) -> Conflation:
    """Baer sum as sequences: diagonal pull-back then codiagonal push-out."""
    if c.left != d.left or c.right != d.right:
        raise ConflationError("Baer sum needs equal ends")
    F = c.left.algebra.field
    s = direct_sum_conflation(c, d)
    M = c.right
    N = c.left
    diag = ModuleMap(M, s.modules[-1],
                     Matrix.identity(F, M.dim).vstack(Matrix.identity(F, M.dim)),
                     _skip_checks=True)
    pulled = pullback_sequence(s, diag)
    codiag = ModuleMap(pulled.modules[0], N,
                       Matrix.identity(F, N.dim).hstack(Matrix.identity(F, N.dim)),
                       _skip_checks=True)
    return pushout_sequence(codiag, pulled)


# ----------------------------------------------------------------------
# Connecting maps
# ----------------------------------------------------------------------

class CosetMap:
    """A linear map between Ext coset spaces, stored on the canonical bases."""

    def __init__(self, source: ExtSpace, target: ExtSpace, matrix: Matrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def apply(self, coords: Matrix) -> Matrix:
        return self.matrix * coords

    def kernel(self) -> Matrix:
        return kernel_basis(self.matrix)

    def rank(self) -> int:
        return rank(self.matrix)

    def is_bijective(self) -> bool:
        return (self.source.dim == self.target.dim ==
                self.rank())


def connecting_map(resolver: Resolver, c: Conflation, X: Module, n: int,
                   covariant: bool = True, via_sequences: bool = False) -> CosetMap:
    """The connecting map of the long exact sequence for a length-1 conflation.

    Covariant: Ext^n(X, C) -> Ext^{n+1}(X, A) for c: A -> B -> C.
    Contravariant: Ext^n(A, X) -> Ext^{n+1}(C, X).

    The default implementation lifts cocycles through the deflation (the
    snake construction); ``via_sequences`` instead splices explicit
    sequences with ``c`` and re-expresses them in the canonical basis, which
    is the independent oracle (the two agree up to a global sign).
    """
    if c.length != 1:
        raise ConflationError("connecting map needs a length-1 conflation")
    A, B, C = c.left, c.modules[1], c.right
    if covariant:
        src = resolver.ext(X, C, n)
        dst = resolver.ext(X, A, n + 1)
    else:
        src = resolver.ext(A, X, n)
        dst = resolver.ext(C, X, n + 1)
    F = resolver.algebra.field
    cols = []
    for elt in src.basis_elements():
        if via_sequences:
            out = _connect_by_splicing(resolver, c, elt, covariant)
        else:
            out = _connect_by_lifting(resolver, c, elt, covariant)
        cols.append(dst.coords(out).a)
    return CosetMap(src, dst, Matrix.from_columns(F, dst.dim, cols))


def _connect_by_lifting(resolver, c: Conflation, elt: ExtElement,
                        covariant: bool) -> ExtElement:
    A, C = c.left, c.right
    infl, defl = c.maps
    if covariant:
        X = elt.M
        res = resolver.resolution(X)
        n = elt.n
        phi = elt.cocycle if n >= 1 else elt.cocycle * res.augmentation()
        # lift phi through the deflation, then factor its boundary
        # through the inflation (the snake construction)
        psi = resolver.comparison_lift(res, phi, [defl, infl], shift=n)[1]
        return ExtElement(resolver, X, A, n + 1, psi, _skip_checks=True)
    # contravariant: gamma in Ext^n(A, X) |-> class of the splice gamma . c,
    # computed by lifting the resolution of C through c once.
    X = elt.N
    n = elt.n
    resC = resolver.resolution(C)
    # chain f_0: P_0(C) -> B over identity of C, then h: P_1(C) -> A
    h = resolver.comparison_lift(resC, resC.augmentation(), [defl, infl])[1]
    # h: P_1(C) -> A kills im d_2, hence factors through the first syzygy of C;
    # pulling gamma back along the induced map realizes the connecting map.
    g = factor_through((h, resC.cover(1)))
    if n == 0:
        composed = elt.cocycle * g          # syz(C) -> X
        psi = composed * resC.cover(1)      # P_1(C) -> X
        return ExtElement(resolver, C, X, 1, psi, _skip_checks=True)
    # shift: cocycle of gamma.g on P_{n}(syz C) then transported to P_{n+1}(C)
    pulled = pull_back(elt, g)              # in Ext^n(syz C, X)
    return _shift_syzygy_class(resolver, C, pulled)


def _shift_syzygy_class(resolver: Resolver, C: Module, elt: ExtElement) -> ExtElement:
    """Ext^n(syz C, X) -> Ext^{n+1}(C, X) along the rotated resolution.

    The minimal resolution of syz C is the shifted resolution of C up to
    the canonical comparison; the class transports by lifting.
    """
    n = elt.n
    resC = resolver.resolution(C)
    resS = resolver.resolution(resC.syzygy(1))
    # chain u_k: P_{k+1}(C) -> P_k(syz C) over the cover P_1(C) ->> syz C
    u = resolver.comparison_lift(resC, resC.cover(1), resS.maps(n), shift=1)
    return ExtElement(resolver, C, elt.N, n + 1, elt.cocycle * u[-1],
                      _skip_checks=True)


def _connect_by_splicing(resolver, c: Conflation, elt: ExtElement,
                         covariant: bool) -> ExtElement:
    if covariant:
        if elt.n == 0:
            seq = pullback_sequence(c, elt.cocycle)
        else:
            seq = splice(c, elt.sequence())
        return class_from_sequence(resolver, seq)
    if elt.n == 0:
        seq = pushout_sequence(elt.cocycle, c)
    else:
        seq = splice(elt.sequence(), c)
    return class_from_sequence(resolver, seq)
