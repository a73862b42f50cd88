"""The relative-projective subfunctor, quasi-invertibles, phantoms and the
composition on Ext^n modulo that subfunctor.

``P(M, N)`` collects the degree-n classes that arise by pulling back through
a module of finite relative projective dimension (equivalently pushing out
from one).  The hot-path membership test is the kernel of the connecting map
along the canonical cover sequence of N; the factoring characterization is
kept alongside as a redundant oracle.  On the quotient the composition
``beta . gamma := ((beta a) b^{-1}) f`` is computed literally: a right unit
factorization of gamma, a co-angled pair gluing its unit to the canonical
one, division by the quasi-invertible leg, and a final pull-back.

Co-angled and angled pairs are one type, :class:`GluedPair`.  The glued
unit is certified by the :class:`~stablext.frobenius.UnitConflation`
constructor, and both legs by one check: a deflation (co-angled) or an
inflation (angled), quasi-invertible, and moving the class of each glued
unit onto the glued one by pull-back or push-out.
"""

from __future__ import annotations

from .exactlin import Matrix, combine, kernel_basis, quotient_reps, rank, solve
from .algmod import (
    Conflation, Module, ModuleMap, cokernel_module, column_space_basis,
    direct_sum, factor_through, identity_map, zero_module, zero_map,
)
from .frobenius import CertificationError, FrobeniusContext, UnitConflation
from .resolve import ExtElement, connecting_map, pull_back, push_out

__all__ = [
    "PModSpace", "GluedPair", "RingTable",
    "p_subspace", "p_member", "p_member_factoring",
    "unit_coset", "is_quasi_invertible", "is_phantom", "is_phantom_right",
    "ruf", "luf", "coangled", "angled", "divide_by_sigma",
    "compose_mod_p", "ext_ring", "phi",
]


class PModSpace:
    """Ext^n(M, N) / P with deterministic quotient coordinates.

    The subspace P is the kernel of the connecting map along the canonical
    cover sequence syz N -> Q -> N (in degree 0 this is exactly the maps
    factoring through a projective).
    """

    def __init__(self, ctx: FrobeniusContext, M: Module, N: Module):
        self.ctx = ctx
        self.M = M
        self.N = N
        self.n = ctx.n
        resolver = ctx.resolver
        if N.dim == 0:
            self.ext = resolver.ext(M, N, self.n)
            self.p_basis = Matrix.zeros(ctx.algebra.field, self.ext.dim, 0)
        else:
            cover_seq = resolver.resolution(N).truncation(1)
            conn = connecting_map(resolver, cover_seq, M, self.n, covariant=True)
            self.ext = conn.source
            self.p_basis = column_space_basis(conn.kernel())
            self.connecting = conn
        self.reps_p, self.proj_p = quotient_reps(self.ext.dim, self.p_basis)

    @property
    def dim(self) -> int:
        return self.reps_p.cols

    def qcoords(self, elt: ExtElement) -> Matrix:
        return self.proj_p * self.ext.coords(elt)

    def from_coset_coords(self, coords: Matrix) -> Matrix:
        return self.proj_p * coords

    def representative(self, q: Matrix) -> ExtElement:
        return self.ext.element_from_coords(self.reps_p * q)

    def basis_representatives(self):
        F = self.ctx.algebra.field
        return [self.representative(Matrix.unit(F, self.dim, j))
                for j in range(self.dim)]

    def zero(self) -> Matrix:
        return Matrix.zeros(self.ctx.algebra.field, self.dim, 1)


def p_subspace(ctx: FrobeniusContext, M: Module, N: Module) -> PModSpace:
    return ctx.memo("pmod", (M, N), lambda: PModSpace(ctx, M, N))


def p_member(ctx: FrobeniusContext, gamma: ExtElement) -> bool:
    """Connecting-map membership test for the subfunctor (the hot path)."""
    if gamma.n != ctx.n:
        raise ValueError(f"P lives in degree {ctx.n}, element has degree {gamma.n}")
    return p_subspace(ctx, gamma.M, gamma.N).qcoords(gamma).is_zero()


def p_member_factoring(ctx: FrobeniusContext, gamma: ExtElement) -> bool:
    """Redundant oracle for the subfunctor membership.

    Degree 0: a direct factoring solve through the projective cover of the
    target.  Degree n >= 1: every member factors through the fixed envelope
    inflation of the source into a relative projective, so membership is a
    rank test against the span of pull-backs along that inflation.
    """
    _check_algebra(ctx, gamma.M, gamma.N)
    resolver = ctx.resolver
    M, N = gamma.M, gamma.N
    if ctx.n == 0:
        cover = resolver.resolution(N).cover(0)
        lifted = resolver.solve_hom(M, cover.source, gamma.cocycle, post=cover)
        return lifted is not None
    e = ctx.envelope(M)
    space = resolver.ext(M, N, ctx.n)
    eta_space = resolver.ext(e.target, N, ctx.n)
    cols = [space.coords(pull_back(eta, e)).a
            for eta in eta_space.basis_elements()]
    span = Matrix.from_columns(ctx.algebra.field, space.dim, cols)
    target = space.coords(gamma)
    return rank(span) == rank(span.hstack(target))


def _check_algebra(ctx: FrobeniusContext, M: Module, N: Module) -> None:
    """Refuse a map or class M -> N over another algebra than the context's."""
    if M.algebra is not ctx.algebra:
        raise ValueError(
            f"{M.name or M} -> {N.name or N} is over "
            f"{M.algebra.name or M.algebra}, not over the context's algebra "
            f"{ctx.algebra.name or ctx.algebra}")


# ----------------------------------------------------------------------
# Quasi-invertibles and phantoms
# ----------------------------------------------------------------------

def unit_coset(ctx: FrobeniusContext, f: ModuleMap) -> Matrix:
    """The coset of the target's canonical unit pulled back along f: M -> N,
    in Ext^n(M, syz^n N)/P (f itself modulo P when n = 0).

    T(f), phi(f) and the phantom test all read it, so it is computed once
    per map structure and returned read-only.
    """
    _check_algebra(ctx, f.source, f.target)

    def build():
        space = p_subspace(ctx, f.source, ctx.syz(f.target))
        coset = space.qcoords(pull_back(ctx.unit_element(f.target), f))
        coset.a.flags.writeable = False
        return coset

    return ctx.memo("unit_coset", (f,), build)


def is_quasi_invertible(ctx: FrobeniusContext, f: ModuleMap) -> bool:
    """Cokernel criterion: f acts invertibly on Ext^{n+1} exactly when the
    cokernel of [f, e]^t into N (+) I(M) is relative projective."""
    _check_algebra(ctx, f.source, f.target)

    def build():
        e = ctx.envelope(f.source)
        _, injs, _ = direct_sum([f.target, e.target])
        L, _ = cokernel_module((injs[0] * f) + (injs[1] * e))
        return ctx.is_n_projective(L)

    return ctx.memo("quasi_inv", (f,), build)


def is_phantom(ctx: FrobeniusContext, f: ModuleMap) -> bool:
    """Left annihilation of Ext^n/P: the canonical unit pulled back along f
    lies in P."""
    return unit_coset(ctx, f).is_zero()


def is_phantom_right(ctx: FrobeniusContext, f: ModuleMap) -> bool:
    """Right annihilation, through the dual route: push the canonical
    co-unit of the source out along f (degree 0 uses the factoring solve)."""
    _check_algebra(ctx, f.source, f.target)
    X = f.source
    if ctx.n == 0:
        gamma = ExtElement(ctx.resolver, X, f.target, 0, f, _skip_checks=True)
        return p_member_factoring(ctx, gamma)
    delta = ctx.unit_up(X, ctx.n)
    return p_member(ctx, push_out(f, delta.element))


# ----------------------------------------------------------------------
# Unit factorizations
# ----------------------------------------------------------------------

def ruf(ctx: FrobeniusContext, gamma: ExtElement, variant: str = "canonical"):
    """Right unit factorization gamma = delta . f.

    delta is the truncated injective coresolution of the left end (or its
    padded variant), f solves the pull-back equation in the canonical coset
    coordinates; the factorization is verified before returning, once per
    class structure (the ends and the cocycle) and variant.
    """
    _check_algebra(ctx, gamma.M, gamma.N)
    if gamma.n < 1:
        raise ValueError("unit factorizations need degree >= 1")

    def build():
        delta = _ruf_unit(ctx, gamma.N, gamma.n, variant)
        mat, homs = _pullback_matrix(ctx, delta, gamma.M)
        space = ctx.resolver.ext(gamma.M, gamma.N, gamma.n)
        x = solve(mat, space.coords(gamma))
        if x is None:
            raise CertificationError("right unit factorization solve failed")
        f = homs.combine(x)
        if not pull_back(delta.element, f).same_class(gamma):
            raise CertificationError("right unit factorization did not verify")
        return delta, f

    return ctx.memo("ruf", (gamma.M, gamma.cocycle), build, gamma.n, variant)


def _ruf_unit(ctx: FrobeniusContext, X: Module, k: int, variant: str):
    if variant == "canonical":
        return ctx.unit_up(X, k)
    if variant != "padded":
        raise ValueError(f"unknown RUF variant {variant!r}")

    def build():
        from .resolve import direct_sum_conflation
        base = ctx.unit_up(X, k).conflation
        pad = _trivial_unit(ctx, ctx.envelope(X).target, k)
        return UnitConflation(ctx, direct_sum_conflation(base, pad), "up")

    return ctx.memo("ruf_pad", (X,), build, k)


def _trivial_unit(ctx: FrobeniusContext, Q: Module, k: int) -> Conflation:
    """0 -> Q -> Q -> 0 -> ... -> 0, the length-k padding of a unit conflation."""
    Z = zero_module(ctx.algebra)
    mods = [Z, Q, Q] + [Z] * (k - 1)
    maps = [zero_map(Z, Q), identity_map(Q)]
    if k >= 2:
        maps.append(zero_map(Q, Z))
        for _ in range(k - 2):
            maps.append(zero_map(Z, Z))
    return Conflation(mods, maps)


def _pullback_matrix(ctx, delta: UnitConflation, M: Module):
    """Matrix of f |-> coords(delta . f) over the hom basis Hom(M, right end)."""
    def build():
        E = delta.conflation.right
        X = delta.conflation.left
        homs = ctx.resolver.hom_basis(M, E)
        space = ctx.resolver.ext(M, X, delta.conflation.length)
        cols = [space.coords(pull_back(delta.element, h)).a for h in homs.maps]
        return Matrix.from_columns(ctx.algebra.field, space.dim, cols), homs

    return ctx.memo("ruf_mat", (delta, M), build)


def luf(ctx: FrobeniusContext, gamma: ExtElement):
    """Left unit factorization gamma = g . delta with delta the truncated
    minimal resolution of the right end; exact on the nose."""
    if gamma.n < 1:
        raise ValueError("unit factorizations need degree >= 1")
    M = gamma.M
    k = gamma.n
    delta = ctx.unit_down(M, k)
    # the cocycle kills im d_{k+1}, so it factors through P_k ->> syz^k M
    g = factor_through((gamma.cocycle, ctx.resolver.resolution(M).cover(k)))
    if not push_out(g, delta.element).same_class(gamma):
        raise CertificationError("left unit factorization did not verify")
    return g, delta


# ----------------------------------------------------------------------
# Angled and co-angled pairs
# ----------------------------------------------------------------------

class GluedPair:
    """Two unit conflations glued through a third, ``delta``.

    Co-angled (``delta`` up, in U^k(X)): delta1 <-a1- delta -a2-> delta2,
    the legs deflations with delta = delta_i . a_i.  Angled (``delta``
    down, in U_k(N)): delta1 -a1-> delta <-a2- delta2, the legs inflations
    with a_i . delta_i = delta.  Every leg of a built pair is certified by
    :func:`_certified_pair`.
    """

    def __init__(self, delta: UnitConflation, a1: ModuleMap, a2: ModuleMap):
        self.delta = delta
        self.a1 = a1
        self.a2 = a2


def coangled(ctx: FrobeniusContext, d1: UnitConflation,
             d2: UnitConflation) -> GluedPair:
    """The explicit gluing of two co-unit conflations on the same object.

    Direct-sum the middle terms step by step, pad each gluing stage with the
    injective envelope of the stage cokernel, and take the projection
    deflations; both legs are certified quasi-invertible and the class
    identities delta3 = delta_i a_i are checked.
    """
    return _glue(ctx, d1, d2, "co-angled")


def angled(ctx: FrobeniusContext, d1: UnitConflation,
           d2: UnitConflation) -> GluedPair:
    """Dual gluing for unit conflations ending at the same object, computed
    by running the co-angled construction over the opposite algebra."""
    return _glue(ctx, d1, d2, "angled")


def _glue(ctx, d1, d2, kind):
    co = kind == "co-angled"
    c1, c2 = d1.conflation, d2.conflation
    e1, e2 = (c1.left, c2.left) if co else (c1.right, c2.right)
    if e1 is not e2 and e1 != e2:
        side = "left" if co else "right"
        raise ValueError(f"{kind} pair needs a common {side} end")
    if c1.length != c2.length:
        raise ValueError(f"{kind} pair needs equal lengths")
    if d1 is d2:
        # the pair [delta . 1, delta . 1] glues a conflation with itself
        one = identity_map(c1.right if co else c1.left)
        return GluedPair(d1, one, one)
    build = _coangled_build if co else _angled_build
    return ctx.memo(kind, (d1, d2), lambda: build(ctx, d1, d2))


def _certified_pair(ctx, delta, d1, a1, d2, a2) -> GluedPair:
    """The pair once each leg a is certified: a deflation (co-angled) or an
    inflation (angled), quasi-invertible, and d . a resp. a . d in the
    class of delta."""
    co = delta.direction == "up"
    kind, shape = ("co-angled", "a deflation") if co else ("angled", "an inflation")
    for a, d in ((a1, d1), (a2, d2)):
        if not (a.is_surjective() if co else a.is_injective()):
            raise CertificationError(f"{kind} leg is not {shape}")
        if not is_quasi_invertible(ctx, a):
            raise CertificationError(f"{kind} leg is not quasi-invertible")
        moved = pull_back(d.element, a) if co else push_out(a, d.element)
        if not moved.same_class(delta.element):
            raise CertificationError(f"{kind} class identity failed")
    return GluedPair(delta, a1, a2)


def _stage_data(c: Conflation):
    """Per-stage quotients (L_i^t, q_i^t, j_i^t) of an exact k-fold conflation."""
    k = c.length
    stages = []
    prev_incl = c.maps[0]
    for t in range(1, k + 1):
        if t < k:
            L, q = cokernel_module(prev_incl)
            j = factor_through((c.maps[t], q))  # induced by P_t -> P_{t+1}
            stages.append((L, q, j))
            prev_incl = j
        else:
            stages.append((c.modules[-1], c.maps[-1], None))
    return stages


def _coangled_build(ctx, d1, d2):
    c1, c2 = d1.conflation, d2.conflation
    k = c1.length
    X = c1.left
    s1 = _stage_data(c1)
    s2 = _stage_data(c2)

    mods = [X]
    maps = []
    for t in range(k):
        P1t, P2t = c1.modules[t + 1], c2.modules[t + 1]
        if t == 0:
            Q, injs, projs = direct_sum([P1t, P2t])
            j = (injs[0] * c1.maps[0]) + (injs[1] * c2.maps[0])
        else:
            # glue along the previous stage's legs, padded by the envelope
            # of its cokernel L
            pad = ctx.envelope(L)
            Q, injs, projs = direct_sum([P1t, P2t, pad.target])
            j = (injs[0] * (s1[t - 1][2] * a1)) + (injs[1] * (s2[t - 1][2] * a2)) \
                + (injs[2] * pad)
        mods.append(Q)
        maps.append(j if t == 0 else j * q)
        L, q = cokernel_module(j)
        # the legs out of this stage's cokernel; after the last stage they
        # are the deflations of the pair
        a1 = factor_through((s1[t][1] * projs[0], q))
        a2 = factor_through((s2[t][1] * projs[1], q))
    mods.append(L)
    maps.append(q)
    delta3 = UnitConflation(ctx, Conflation(mods, maps), "up")
    return _certified_pair(ctx, delta3, d1, a1, d2, a2)


def _angled_build(ctx, d1, d2):
    pair = coangled(ctx.opposite(), _dual_unit(ctx, d1), _dual_unit(ctx, d2))
    resolver = ctx.resolver
    delta3 = UnitConflation(ctx, resolver.dual_conflation(pair.delta.conflation),
                            "down")
    return _certified_pair(ctx, delta3, d1, resolver.dual_map(pair.a1),
                           d2, resolver.dual_map(pair.a2))


def _dual_unit(ctx, d: UnitConflation) -> UnitConflation:
    """d dualized: a unit over the opposite algebra, certified there."""
    return ctx.memo("dualunit", (d,), lambda: UnitConflation(
        ctx.opposite(), ctx.resolver.dual_conflation(d.conflation),
        "up" if d.direction == "down" else "down"))


# ----------------------------------------------------------------------
# Division by quasi-invertibles and composition
# ----------------------------------------------------------------------

def divide_by_sigma(ctx: FrobeniusContext, b: ModuleMap, side: str,
                    end: Module, coords: Matrix) -> Matrix:
    """Solve for the coset with (result . b) resp. (b . result) equal to the
    given class modulo P; unique because quasi-invertibles act invertibly.

    For side "right": b: V -> W, result in Ext^n(W, end)/P with pull-back
    along b landing on ``coords`` (coordinates of Ext^n(V, end)/P).
    For side "left": b: V -> W, result in Ext^n(end, V)/P with push-out
    along b landing on ``coords`` (coordinates of Ext^n(end, W)/P).
    """
    def build():
        F = ctx.algebra.field
        if side == "right":
            src_space = p_subspace(ctx, b.target, end)
            dst_space = p_subspace(ctx, b.source, end)
            cols = [dst_space.qcoords(pull_back(g, b)).a
                    for g in src_space.basis_representatives()]
        elif side == "left":
            src_space = p_subspace(ctx, end, b.source)
            dst_space = p_subspace(ctx, end, b.target)
            cols = [dst_space.qcoords(push_out(b, g)).a
                    for g in src_space.basis_representatives()]
        else:
            raise ValueError("side must be 'left' or 'right'")
        mat = Matrix.from_columns(F, dst_space.dim, cols)
        if kernel_basis(mat).cols != 0:
            raise CertificationError(
                "quasi-invertible does not act invertibly on Ext^n/P")
        return mat

    mat = ctx.memo("divmat", (b, end), build, side)
    x = solve(mat, coords)
    if x is None:
        raise CertificationError(
            "division by a quasi-invertible failed: no preimage class")
    return x


def compose_mod_p(ctx: FrobeniusContext, N: Module, K: Module,
                  beta: ExtElement, gamma: ExtElement,
                  ruf_variant: str = "canonical") -> Matrix:
    """The composition class of beta in Ext^n(N, syz^n K) with gamma in
    Ext^n(M, syz^n N), as quotient coordinates in Ext^n(M, syz^n K)/P."""
    for elt in (beta, gamma):
        _check_algebra(ctx, elt.M, elt.N)
    n = ctx.n
    M = gamma.M
    OmK = ctx.syz(K)
    out_space = p_subspace(ctx, M, OmK)
    if n == 0:
        composed = ExtElement(ctx.resolver, M, K, 0,
                              beta.cocycle * gamma.cocycle, _skip_checks=True)
        return out_space.qcoords(composed)
    OmN = ctx.syz(N)
    if gamma.N is not OmN and gamma.N != OmN:
        raise ValueError("gamma is not anchored at the canonical syzygy of N")
    if beta.M is not N and beta.M != N:
        raise ValueError("beta does not start at N")
    if beta.N is not OmK and beta.N != OmK:
        raise ValueError("beta is not anchored at the canonical syzygy of K")
    delta, f = ruf(ctx, gamma, variant=ruf_variant)
    return out_space.qcoords(pull_back(_beta_prime(ctx, beta, delta), f))


def _beta_prime(ctx: FrobeniusContext, beta: ExtElement,
                delta: UnitConflation) -> ExtElement:
    """The class beta' on the right end of delta with beta' . b1 = beta . a1
    modulo P, for the co-angled pair (a1, b1) gluing the canonical unit of
    beta's source to delta; computed once per class structure and delta."""
    def build():
        OmK = beta.N
        pair = coangled(ctx, ctx.unit_down(beta.M, ctx.n), delta)
        a1, b1 = pair.a1, pair.a2
        mid_space = p_subspace(ctx, a1.source, OmK)
        divided = divide_by_sigma(ctx, b1, "right", OmK,
                                  mid_space.qcoords(pull_back(beta, a1)))
        return p_subspace(ctx, b1.target, OmK).representative(divided)

    return ctx.memo("beta_prime", (beta.M, beta.cocycle, delta), build)


# ----------------------------------------------------------------------
# The endomorphism-side ring and the morphism phi
# ----------------------------------------------------------------------

class RingTable:
    """(Ext^n(M, syz^n M)/P, +, .): multiplication table on the coset basis."""

    def __init__(self, ctx: FrobeniusContext, M: Module):
        self.ctx = ctx
        self.M = M
        self.space = p_subspace(ctx, M, ctx.syz(M))
        self.table = {}
        reps = self.space.basis_representatives()
        for i, bi in enumerate(reps):
            for j, bj in enumerate(reps):
                self.table[(i, j)] = compose_mod_p(ctx, M, M, bi, bj)
        self.one = self.space.qcoords(ctx.unit_element(M))

    @property
    def dim(self):
        return self.space.dim

    def multiply(self, x: Matrix, y: Matrix) -> Matrix:
        # the table's keys are in (i, j) order, matching the entries of x (x) y
        return combine(x.kron(y), list(self.table.values()), self.dim, 1)

    def is_invertible(self, x: Matrix) -> bool:
        """Two-sided inverse through the regular representation."""
        F = self.ctx.algebra.field
        units = [Matrix.unit(F, self.dim, j) for j in range(self.dim)]
        return _has_two_sided_inverse(
            [(self.multiply(x, e), self.multiply(e, x)) for e in units],
            self.one, self.one)


def _has_two_sided_inverse(products, one_left: Matrix,
                           one_right: Matrix) -> bool:
    """Whether x has a two-sided inverse y = sum c_j y_j, given the
    coordinates of (x . y_j, y_j . x) for each basis element y_j and those
    of the two identities: both solves must give the same c."""
    F = one_left.field
    li = solve(Matrix.from_columns(F, one_left.rows, [xy.a for xy, _ in products]),
               one_left)
    ri = solve(Matrix.from_columns(F, one_right.rows, [yx.a for _, yx in products]),
               one_right)
    return li is not None and ri is not None and li == ri


def ext_ring(ctx: FrobeniusContext, M: Module) -> RingTable:
    return ctx.memo("ring", (M,), lambda: RingTable(ctx, M))


def phi(ctx: FrobeniusContext, f: ModuleMap) -> Matrix:
    """The ring morphism End(M) -> Ext^n(M, syz^n M)/P: the coset of the
    canonical unit pulled back along f (read-only, see :func:`unit_coset`)."""
    if f.source is not f.target and f.source != f.target:
        raise ValueError("phi needs an endomorphism")
    return unit_coset(ctx, f)
