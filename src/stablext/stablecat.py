"""The phantom stable category: hom-spaces, normalization, composition,
the canonical functor, and the syzygy isomorphism.

Hom(M, N) here is the quotient Ext^n(M, syz^n N) / P taken against the
canonical anchor (the truncated minimal resolution of N).  Arbitrary
anchors only ever appear through :func:`normalize`, which moves a class
anchored at any unit conflation to the canonical one; the gluing argument
makes that move unique, so the hot path can work with plain cosets.
"""

from __future__ import annotations

from .exactlin import Matrix, quotient_reps, rank, solve
from .algmod import Module, ModuleMap, column_space_basis, identity_map
from .frobenius import CertificationError, FrobeniusContext, UnitConflation
from .phantom import (
    PModSpace, _check_algebra, _has_two_sided_inverse, angled, compose_mod_p,
    divide_by_sigma, p_subspace, unit_coset,
)
from .resolve import ExtElement, connecting_map, push_out

__all__ = [
    "StableHomSpace", "StableMorphism",
    "stable_hom", "functor_T", "stable_compose", "normalize",
    "stable_is_iso", "omega_iso", "is_stably_zero",
    "classical_stable_dim", "classical_stable_class", "embedding_dim_check",
]


class StableHomSpace:
    """Hom in the phantom stable category, with its coset basis."""

    def __init__(self, ctx: FrobeniusContext, M: Module, N: Module):
        self.ctx = ctx
        self.M = M
        self.N = N
        self.anchor = ctx.syz(N)
        self.pmod: PModSpace = p_subspace(ctx, M, self.anchor)

    @property
    def dim(self) -> int:
        return self.pmod.dim

    def morphism(self, coords: Matrix) -> "StableMorphism":
        if coords.rows != self.dim or coords.cols != 1:
            raise ValueError("coordinates do not match the hom-space basis")
        return StableMorphism(self, coords)

    def zero(self) -> "StableMorphism":
        return self.morphism(self.pmod.zero())

    def from_element(self, elt: ExtElement) -> "StableMorphism":
        return self.morphism(self.pmod.qcoords(elt))

    def basis(self):
        F = self.ctx.algebra.field
        return [self.morphism(Matrix.unit(F, self.dim, j))
                for j in range(self.dim)]

    def __repr__(self):
        return f"StableHom({self.M.name or '?'} -> {self.N.name or '?'}, dim={self.dim})"


class StableMorphism:
    """A coset in a StableHomSpace, stored by its quotient coordinates."""

    def __init__(self, space: StableHomSpace, coords: Matrix):
        self.space = space
        self.coords = coords

    def __add__(self, other: "StableMorphism") -> "StableMorphism":
        if other.space is not self.space:
            raise ValueError("morphisms live in different hom-spaces")
        return StableMorphism(self.space, self.coords + other.coords)

    def __sub__(self, other: "StableMorphism") -> "StableMorphism":
        if other.space is not self.space:
            raise ValueError("morphisms live in different hom-spaces")
        return StableMorphism(self.space, self.coords - other.coords)

    def __eq__(self, other):
        if not isinstance(other, StableMorphism):
            return NotImplemented
        return self.space is other.space and self.coords == other.coords

    def is_zero(self) -> bool:
        return self.coords.is_zero()

    def representative(self) -> ExtElement:
        return self.space.pmod.representative(self.coords)

    def __repr__(self):
        return f"StableMorphism({self.space!r}, {self.coords.a.ravel().tolist()})"


def stable_hom(ctx: FrobeniusContext, M: Module, N: Module) -> StableHomSpace:
    return ctx.memo("stablehom", (M, N), lambda: StableHomSpace(ctx, M, N))


def functor_T(ctx: FrobeniusContext, f: ModuleMap) -> StableMorphism:
    """T(f): the canonical unit conflation of the target pulled back along f,
    as its coset (see :func:`~stablext.phantom.unit_coset`)."""
    coset = unit_coset(ctx, f)
    return stable_hom(ctx, f.source, f.target).morphism(coset)


def stable_compose(ctx: FrobeniusContext, g: StableMorphism,
                   f: StableMorphism) -> StableMorphism:
    """Composition through the unit-factorization calculus (g after f)."""
    if f.space.N is not g.space.M and f.space.N != g.space.M:
        raise ValueError("morphisms are not composable")
    out_space = stable_hom(ctx, f.space.M, g.space.N)
    coords = compose_mod_p(ctx, g.space.M, g.space.N,
                           g.representative(), f.representative())
    return out_space.morphism(coords)


def normalize(ctx: FrobeniusContext, gamma: ExtElement,
              anchor: UnitConflation, N: Module) -> StableMorphism:
    """Move a class anchored at an arbitrary unit conflation on N to the
    canonical anchor; unique by the invertible action of the gluing legs."""
    space = stable_hom(ctx, gamma.M, N)
    if ctx.n == 0:
        return space.from_element(gamma)
    canonical = ctx.unit_down(N, ctx.n)
    if anchor is canonical:
        return space.from_element(gamma)
    if anchor.conflation.right != N:
        raise ValueError("anchor is not a unit conflation on N")
    if gamma.N != anchor.conflation.left:
        raise ValueError("class is not anchored at the given unit conflation")
    pair = angled(ctx, canonical, anchor)
    a, b = pair.a1, pair.a2
    pushed = push_out(b, gamma)
    mid = p_subspace(ctx, gamma.M, b.target)
    coords = divide_by_sigma(ctx, a, "left", gamma.M, mid.qcoords(pushed))
    return space.morphism(coords)


def stable_is_iso(ctx: FrobeniusContext, m: StableMorphism) -> bool:
    """Solve for a two-sided compositional inverse in coset coordinates."""
    M, N = m.space.M, m.space.N
    back = stable_hom(ctx, N, M)
    endN = stable_hom(ctx, N, N)
    endM = stable_hom(ctx, M, M)
    if back.dim == 0:
        return endN.dim == 0 and endM.dim == 0
    products = [(stable_compose(ctx, m, x).coords,
                 stable_compose(ctx, x, m).coords) for x in back.basis()]
    idN = functor_T(ctx, identity_map(N)).coords
    idM = functor_T(ctx, identity_map(M)).coords
    return _has_two_sided_inverse(products, idN, idM)


def is_stably_zero(ctx: FrobeniusContext, M: Module) -> bool:
    return stable_hom(ctx, M, M).dim == 0


# ----------------------------------------------------------------------
# The syzygy isomorphism
# ----------------------------------------------------------------------

class OmegaIso:
    """The composite Hom(M, N) -> Ext^{n+1}(M, syz^{n+1}N) -> Hom(sM, sN)."""

    def __init__(self, ctx: FrobeniusContext, M: Module, N: Module):
        self.ctx = ctx
        self.source = stable_hom(ctx, M, N)
        resolver = ctx.resolver
        n = ctx.n
        OmM = resolver.syzygy(M, 1)
        OmN = resolver.syzygy(N, 1)
        self.target = stable_hom(ctx, OmM, OmN)
        F = ctx.algebra.field
        if self.source.dim == 0 or self.target.dim == 0:
            if self.source.dim != self.target.dim:
                raise CertificationError(
                    "syzygy hom-spaces have different dimensions")
            self.matrix = Matrix.zeros(F, self.target.dim, self.source.dim)
            return
        # first leg: the connecting map along syz^{n+1} N -> P_n -> syz^n N,
        # the one the source's subfunctor P is the kernel of
        conn1 = self.source.pmod.connecting
        up = conn1.matrix * self.source.pmod.reps_p
        # second leg: the contravariant connecting along syz M -> P_0 -> M,
        # inverted on the quotient by P
        c2 = resolver.resolution(M).truncation(1)
        Z = self.target.anchor
        conn2 = connecting_map(resolver, c2, Z, n, covariant=False)
        if conn1.target.dim != conn2.target.dim:
            raise CertificationError("middle Ext spaces disagree")
        cols = []
        for j in range(self.source.dim):
            x = Matrix(F, up.a[:, [j]])
            y = solve(conn2.matrix, x)
            if y is None:
                raise CertificationError(
                    "syzygy transport failed: connecting map not surjective")
            cols.append(self.target.pmod.from_coset_coords(y).a)
        self.matrix = Matrix.from_columns(F, self.target.dim, cols)

    def apply(self, m: StableMorphism) -> StableMorphism:
        return self.target.morphism(self.matrix * m.coords)

    def is_bijective(self) -> bool:
        return (self.source.dim == self.target.dim
                and rank(self.matrix) == self.source.dim)


def omega_iso(ctx: FrobeniusContext, M: Module, N: Module) -> OmegaIso:
    return ctx.memo("omega", (M, N), lambda: OmegaIso(ctx, M, N))


# ----------------------------------------------------------------------
# Classical stable homs and the embedding check
# ----------------------------------------------------------------------

def _classical_quotient(ctx: FrobeniusContext, M: Module, N: Module):
    """Hom(M, N) and the projection onto its quotient by the maps factoring
    through a projective, found by the direct factoring solve through the
    projective cover of N (independent of the Ext route)."""
    def build():
        resolver = ctx.resolver
        hb = resolver.hom_basis(M, N)
        F = ctx.algebra.field
        cols = []
        if hb.dim:
            cover = resolver.resolution(N).cover(0)
            through = resolver.hom_basis(M, cover.source)
            cols = [hb.coords(ModuleMap(M, N, cover.matrix * u.matrix,
                                        _skip_checks=True)).a
                    for u in through.maps]
        span = Matrix.from_columns(F, hb.dim, cols)
        return hb, quotient_reps(hb.dim, column_space_basis(span))[1]

    return ctx.memo("classical", (M, N), build)


def classical_stable_dim(ctx: FrobeniusContext, M: Module, N: Module) -> int:
    """dim Hom(M, N) minus the maps factoring through a projective."""
    return _classical_quotient(ctx, M, N)[1].rows


def classical_stable_class(ctx: FrobeniusContext, f: ModuleMap) -> Matrix:
    """Coordinates of f in Hom(M, N) modulo the projective-factoring span."""
    _check_algebra(ctx, f.source, f.target)
    hb, proj = _classical_quotient(ctx, f.source, f.target)
    return proj * hb.coords(f)


def embedding_dim_check(ctx: FrobeniusContext, M: Module, N: Module):
    """Both hom dimensions for a pair of Gorenstein projectives: the
    classical stable hom inside the G-projective subcategory, and the
    phantom stable hom; full faithfulness at the hom level means equality."""
    if not ctx.is_gproj(M) or not ctx.is_gproj(N):
        raise ValueError("embedding check needs Gorenstein projective inputs")
    return classical_stable_dim(ctx, M, N), stable_hom(ctx, M, N).dim
