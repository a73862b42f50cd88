"""Gorenstein structure detection and unit conflations.

``mod A`` for an Iwanaga-Gorenstein algebra A (the regular module has the
same finite injective dimension n on both sides) carries the structure this
package computes in: the modules of projective dimension at most n behave
simultaneously as relative projectives and injectives, every module admits
unit conflations built from truncated minimal (co)resolutions, and the
classical case n = 0 is exactly a self-injective algebra.  The detection
here is empirical: nothing is assumed that is not re-verified by rank
computations.  Every unit conflation, whether canonical, padded, glued
(:mod:`stablext.phantom`) or dual, is certified by its one constructor,
:class:`UnitConflation`, which checks each middle term relative projective.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .exactlin import Matrix
from .algmod import (
    Algebra, Conflation, Module, ModuleMap, cokernel_module, extending_columns,
    injective_envelope, projective_indecs, simples,
)
from .resolve import ExtElement, Memo, Resolver, class_from_sequence

__all__ = [
    "CertificationError", "UnitConflation", "FrobeniusContext",
    "proj_dim", "inj_dim", "gorenstein_parameter",
    "gorenstein_one_search",
]


class CertificationError(RuntimeError):
    """An assumed structural property failed its computational certificate."""


def proj_dim(resolver: Resolver, M: Module, bound: int):
    """pd M: least k with the k-th syzygy projective, None beyond bound."""
    return resolver.resolution(M).proj_dim(bound)


def inj_dim(resolver: Resolver, M: Module, bound: int):
    """Injective dimension through the dual module over the opposite algebra."""
    return resolver.coresolution(M).inj_dim(bound)


def gorenstein_parameter(algebra: Algebra, bound: int = 8,
                         resolver: Resolver | None = None):
    """max of the injective dimensions of the two regular modules, or None.

    When a value n is returned, mod A is treated as the relative-homological
    setting with parameter n; relative projectives are the modules of
    projective dimension at most n.
    """
    resolver = resolver or Resolver(algebra, bound=bound + 2)
    left = inj_dim(resolver, algebra.regular_module(), bound)
    op = resolver.opposite()
    right = inj_dim(op, algebra.opposite().regular_module(), bound)
    if left is None or right is None:
        return None
    return max(left, right)


class UnitConflation:
    """A length-k conflation whose middle terms are certified n-projective.

    ``direction`` is "down" (ends at N, shaped like a truncated projective
    resolution) or "up" (starts at N, shaped like a truncated injective
    coresolution).  The constructor certifies every middle term with
    ``ctx.is_n_projective`` and raises :class:`CertificationError` naming
    N, the degree k and the failing term, numbered as in a resolution
    (P{k-1} ... P0) or a coresolution (I1 ... Ik).  ``element``, the
    extension class of the sequence, is computed from the sequence unless
    it is given.
    """

    def __init__(self, ctx: "FrobeniusContext", conflation: Conflation,
                 direction: str, element: ExtElement | None = None):
        k = conflation.length
        down = direction == "down"
        N = conflation.right if down else conflation.left
        for i, mid in enumerate(conflation.middles):
            if not ctx.is_n_projective(mid):
                term = (f"projective middle term P{k - 1 - i}" if down
                        else f"injective middle term I{i + 1}")
                raise CertificationError(
                    f"unit conflation of {N.name or N} in degree {k}: {term} "
                    f"of dimension {mid.dim} fails relative projectivity")
        self.conflation = conflation
        self.direction = direction
        self.element = (class_from_sequence(ctx.resolver, conflation)
                        if element is None else element)

    @property
    def left(self):
        return self.conflation.left

    @property
    def right(self):
        return self.conflation.right

    def __repr__(self):
        return f"UnitConflation({self.direction}, {self.conflation!r})"


class FrobeniusContext:
    """Detected Gorenstein context: algebra, parameter n, caches.

    The resolution bound defaults to 2n + 4 once the parameter is known
    (finitistic dimension of the algebra is at most n, so dimension-finite
    detection terminates within the bound); exceeding it raises.  ``bound``
    only caps resolutions: ``is_n_projective`` resolves to depth n, which
    decides pd M <= n, and deeper terms are built when a unit conflation
    or a lift asks for them.

    Every context-level cache (envelopes, relative projectivity, unit
    conflations, Gorenstein projectivity, and the phantom and stable-hom
    objects of :mod:`stablext.phantom` and :mod:`stablext.stablecat`) is
    the one :class:`~stablext.resolve.Memo` ``memo``, serialized by the
    resolver's lock, so threads sharing a context get one object per key.
    """

    def __init__(self, algebra: Algebra, bound: int | None = None,
                 detection_bound: int = 8, _resolver: Resolver | None = None,
                 _opposite: "FrobeniusContext | None" = None):
        self.algebra = algebra
        self.resolver = _resolver or Resolver(algebra,
                                              bound=max(detection_bound + 2,
                                                        bound or 0))
        # the opposite context shares the parameter of the one that built it
        n = (_opposite.n if _opposite is not None
             else gorenstein_parameter(algebra, detection_bound, self.resolver))
        if n is None:
            raise CertificationError(
                f"{algebra.name or algebra}: regular module has injective "
                f"dimension beyond {detection_bound} on some side")
        self.n = n
        self.bound = bound if bound is not None else 2 * n + 4
        self.resolver.bound = max(self.resolver.bound, self.bound)
        self.resolver.opposite().bound = self.resolver.bound
        self.memo = Memo(self.resolver._lock)
        self._opposite = _opposite or FrobeniusContext(
            algebra.opposite(), bound=self.bound,
            _resolver=self.resolver.opposite(), _opposite=self)

    def opposite(self) -> "FrobeniusContext":
        """The mirror context over the opposite algebra (same parameter)."""
        return self._opposite

    def envelope(self, M: Module):
        """Cached injective envelope inflation M -> I(M)."""
        return self.memo("envelope", (M,), lambda: injective_envelope(M)[1])

    # -- relative projectivity -------------------------------------------

    def proj_dim(self, M: Module, bound: int | None = None):
        return proj_dim(self.resolver, M, self.bound if bound is None else bound)

    def inj_dim(self, M: Module, bound: int | None = None):
        return inj_dim(self.resolver, M, self.bound if bound is None else bound)

    def is_n_projective(self, M: Module) -> bool:
        # pd M <= n is decided at depth n; deeper terms stay lazy
        return self.memo("nproj", (M,),
                         lambda: self.proj_dim(M, self.n) is not None)

    def projective_list(self):
        return projective_indecs(self.algebra)

    # -- unit conflations ---------------------------------------------------

    def unit_down(self, N: Module, k: int) -> UnitConflation:
        """Truncated minimal projective resolution in U_k(N)."""
        if k < 1:
            raise ValueError("unit conflation needs k >= 1")
        return self.memo("unit_down", (N,), lambda: self._unit_down(N, k), k)

    def _unit_down(self, N: Module, k: int) -> UnitConflation:
        res = self.resolver.resolution(N)
        # canonical cocycle: the cover P_k ->> syzygy is the comparison lift
        elt = ExtElement(self.resolver, N, res.syzygy(k), k, res.cover(k),
                         _skip_checks=True)
        return UnitConflation(self, res.truncation(k), "down", elt)

    def unit_up(self, N: Module, k: int) -> UnitConflation:
        """Truncated minimal injective coresolution in U^k(N).

        The injective middle terms are certified relative-projective rather
        than assumed; failure indicates a non-Gorenstein context bug.
        """
        if k < 1:
            raise ValueError("unit conflation needs k >= 1")
        return self.memo("unit_up", (N,), lambda: self._unit_up(N, k), k)

    def _unit_up(self, N: Module, k: int) -> UnitConflation:
        return UnitConflation(self, self.resolver.coresolution(N).truncation(k),
                              "up")

    def unit_element(self, M: Module) -> ExtElement:
        """The canonical degree-n unit class on M (the identity when n = 0)."""
        if self.n == 0:
            from .algmod import identity_map
            return ExtElement(self.resolver, M, M, 0, identity_map(M),
                              _skip_checks=True)
        return self.unit_down(M, self.n).element

    def syz(self, M: Module, k: int | None = None) -> Module:
        """Canonical k-th syzygy object (M itself for k = 0)."""
        k = self.n if k is None else k
        if k == 0:
            return M
        return self.resolver.syzygy(M, k)

    # -- Gorenstein projectives ----------------------------------------------

    def is_gproj(self, M: Module) -> bool:
        """Syzygies of totally acyclic projective complexes.

        Two independent certificates must both pass: vanishing of
        Ext^i(M, P) for 1 <= i <= n against every indecomposable projective,
        and the constructive extension of a projective coresolution of M by
        n steps (each step embeds through a minimal generating set of the
        maps into the regular module and checks exactness).
        """
        return self.memo("gproj", (M,), lambda: self._gproj_compute(M))

    def _gproj_compute(self, M: Module) -> bool:
        if M.dim == 0:
            return True
        for P in self.projective_list():
            for i in range(1, self.n + 1):
                if self.resolver.ext(M, P, i).dim != 0:
                    return False
        X = M
        for _ in range(self.n):
            u = self._embed_into_projective(X)
            if u is None or not u.is_injective():
                return False
            X, _ = cokernel_module(u)
        return True

    def _embed_into_projective(self, X: Module):
        """X -> A^m through a minimal generating set of Hom(X, A)."""
        A = self.algebra
        reg = A.regular_module()
        hb = self.resolver.hom_basis(X, reg)
        if hb.dim == 0:
            return None
        # minimal generators: a subset of the basis spanning Hom(X, A) mod
        # its radical (hom . a acts by right multiplication on the target)
        F = A.field
        J = A.radical_span
        rad_cols = []
        for t in range(J.cols):
            Rj = A.mult_by(Matrix(F, J.a[:, [t]]), "right")
            for h in hb.maps:
                m = ModuleMap(X, reg, Rj * h.matrix, _skip_checks=True)
                rad_cols.append(hb.coords(m).a)
        # keep each basis map outside the span of J.Hom(X, A) and the maps
        # kept before it
        chosen = [hb.maps[t] for t in extending_columns(
            Matrix.from_columns(F, hb.dim, rad_cols), Matrix.identity(F, hb.dim))]
        if not chosen:
            return None
        stacked = Matrix(F, np.vstack([h.matrix.a for h in chosen]))
        targets = [reg] * len(chosen)
        from .algmod import direct_sum
        Q, _, _ = direct_sum(targets, name=f"A^{len(chosen)}")
        return ModuleMap(X, Q, stacked, _skip_checks=True)


# ----------------------------------------------------------------------
# Fixture search
# ----------------------------------------------------------------------

def gorenstein_one_search(bound: int = 8, field=None):
    """First small algebra with parameter 1 and infinite global dimension.

    Scans cyclic Nakayama algebras (up to 3 vertices, relation lengths 2
    to 4) and then the triangular table algebra over the dual numbers.  A
    Nakayama candidate whose exact parameter
    (:func:`~stablext.fixtures.nakayama_parameter`, from its kill lengths
    alone) is not 1 is skipped unbuilt: a parameter computed to any bound
    is 1 only when the true one is, so skipping changes no result.  Every
    other candidate is built, and the hit is certified by computation, not
    asserted: parameter exactly 1 within the bound, and some simple module
    with no finite projective resolution within the bound.
    """
    from .exactlin import GF
    from .fixtures import cyclic_nakayama, nakayama_parameter, t2_dual_numbers
    field = field or GF(2)
    candidates = []
    for v in (1, 2, 3):
        for kill in product((2, 3, 4), repeat=v):
            candidates.append(("nakayama", kill))
    candidates.append(("t2", None))
    for kind, kill in candidates:
        if kind == "nakayama":
            if nakayama_parameter(kill) != 1:
                continue
            A = cyclic_nakayama(field, kill)
        else:
            A = t2_dual_numbers(field)
        resolver = Resolver(A, bound=bound + 2)
        gp = gorenstein_parameter(A, bound, resolver)
        if gp != 1:
            continue
        infinite = any(proj_dim(resolver, S, bound) is None for S in simples(A))
        if not infinite:
            continue
        return A
    raise CertificationError(
        "no parameter-1 algebra with infinite global dimension found in the "
        "search space")
