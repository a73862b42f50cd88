"""Acceptance batteries: every headline theorem as a machine check.

Each criterion function returns (passed, detail).  All arithmetic is exact,
so every comparison below is literal equality of coordinates or ranks; no
tolerances appear anywhere.  Randomized batteries draw from a seeded
generator, so a run is reproducible from its seed.
"""

from __future__ import annotations

import random
import time

import numpy as np

from .exactlin import GF, QQ, Matrix, kernel_basis, rank
from .algmod import (
    ModuleMap, check_conflation, identity_map, image_module, kernel_module,
    simples,
)
from .fixtures import (
    dual_numbers, hereditary_a2, indecomposable_inventory, trunc_poly,
)
from .frobenius import FrobeniusContext, gorenstein_one_search, proj_dim
from .phantom import (
    _check_algebra, compose_mod_p, ext_ring, is_phantom, is_phantom_right,
    is_quasi_invertible, p_subspace, phi,
)
from .resolve import (
    baer_sum, baer_sum_sequence, class_from_sequence, pull_back,
    pullback_sequence, push_out, pushout_sequence,
)
from .stablecat import (
    classical_stable_class, classical_stable_dim, embedding_dim_check,
    functor_T, is_stably_zero, omega_iso, stable_compose, stable_hom,
    stable_is_iso,
)

__all__ = ["CriterionResult", "run_suite", "CRITERIA"]


class CriterionResult:
    def __init__(self, number, name, passed, detail, seconds):
        self.number = number
        self.name = name
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def line(self, show_time: bool = False) -> str:
        mark = "PASS" if self.passed else "FAIL"
        base = (f"[{mark}] criterion {self.number:2d} ({self.name}): "
                f"{self.detail}")
        if show_time:
            base += f" [{self.seconds:.1f}s]"
        return base


class _Fixtures:
    """All acceptance contexts, built once per run."""

    def __init__(self, bound=None):
        self.items = []
        for name, alg in [
            ("dual-numbers", dual_numbers(GF(2))),
            ("trunc-poly-3", trunc_poly(3, GF(3))),
            ("hereditary-a2", hereditary_a2(QQ)),
            ("discovered-1-gorenstein", gorenstein_one_search()),
        ]:
            ctx = FrobeniusContext(alg, bound=bound)
            self.items.append((name, ctx, indecomposable_inventory(ctx)))

    def __iter__(self):
        return iter(self.items)

    @property
    def n0(self):
        return [it for it in self.items if it[1].n == 0]

    @property
    def discovered(self):
        return self.items[-1]


def _rand_column(rng, F, d) -> Matrix:
    """d seeded coefficients: uniform over F_p, from -2..2 over Q."""
    return Matrix.column(F, [rng.randrange(F.p) if F.is_prime_field
                             else rng.randint(-2, 2) for _ in range(d)])


def _rand_hom(ctx, rng, M, N) -> ModuleMap:
    hb = ctx.resolver.hom_basis(M, N)
    return hb.combine(_rand_column(rng, ctx.algebra.field, hb.dim))


# ----------------------------------------------------------------------
# Criteria
# ----------------------------------------------------------------------

def criterion_1(fx, rng):
    """classical stable category oracle in the self-injective case"""
    pairs = triples = 0
    for name, ctx, inv in fx.n0:
        for M in inv:
            for N in inv:
                if stable_hom(ctx, M, N).dim != classical_stable_dim(ctx, M, N):
                    return False, f"{name}: dim mismatch at ({M.name},{N.name})"
                hb = ctx.resolver.hom_basis(M, N)
                tk, ck = [], []
                for h in hb.maps:
                    tk.append(functor_T(ctx, h).coords.a)
                    ck.append(classical_stable_class(ctx, h).a)
                if hb.dim:
                    F = ctx.algebra.field
                    kt = kernel_basis(Matrix(F, np.hstack(tk)))
                    kc = kernel_basis(Matrix(F, np.hstack(ck)))
                    if not (kt.cols == kc.cols == rank(kt.hstack(kc))):
                        return False, f"{name}: kernel mismatch at ({M.name},{N.name})"
                pairs += 1
        for M in inv:
            for N in inv:
                for K in inv:
                    for f in ctx.resolver.hom_basis(M, N).maps:
                        for g in ctx.resolver.hom_basis(N, K).maps:
                            lhs = functor_T(ctx, g * f)
                            rhs = stable_compose(ctx, functor_T(ctx, g),
                                                 functor_T(ctx, f))
                            if lhs != rhs:
                                return False, (f"{name}: composition mismatch "
                                               f"({M.name},{N.name},{K.name})")
                            triples += 1
    return True, f"{pairs} pairs, {triples} composable basis triples"


def criterion_2(fx, rng):
    """dimension identities Ext^n/P = Ext^{n+1} against either syzygy"""
    count = 0
    for name, ctx, inv in fx:
        n = ctx.n
        for M in inv:
            for N in inv:
                lhs = p_subspace(ctx, M, N).dim
                mid = ctx.resolver.ext(M, ctx.resolver.syzygy(N, 1), n + 1).dim
                rhs = ctx.resolver.ext(ctx.resolver.cosyzygy(M, 1), N, n + 1).dim
                if not (lhs == mid == rhs):
                    return False, (f"{name} ({M.name},{N.name}): "
                                   f"{lhs} vs {mid} vs {rhs}")
                count += 1
    return True, f"{count} inventory pairs, all three dimensions equal"


def criterion_3(fx, rng, per_fixture=200):
    """left phantom iff right phantom"""
    total = 0
    for name, ctx, inv in fx:
        for _ in range(per_fixture):
            M, N = rng.choice(inv), rng.choice(inv)
            f = _rand_hom(ctx, rng, M, N)
            if is_phantom(ctx, f) != is_phantom_right(ctx, f):
                return False, f"{name}: disagreement on {M.name} -> {N.name}"
            total += 1
    return True, f"{total} seeded morphisms, two-sided tests agree"


def criterion_4(fx, rng, per_fixture=100):
    """quasi-invertible criterion vs brute-force action on Ext^{n+1}"""
    total = 0
    for name, ctx, inv in fx:
        n = ctx.n
        F = ctx.algebra.field
        for _ in range(per_fixture):
            M, N = rng.choice(inv), rng.choice(inv)
            f = _rand_hom(ctx, rng, M, N)
            claimed = is_quasi_invertible(ctx, f)
            actual = True
            for X in inv:
                if not _invertible_action(ctx, f, X):
                    actual = False
                    break
            if claimed != actual:
                return False, f"{name}: disagreement on {M.name} -> {N.name}"
            total += 1
    return True, f"{total} seeded morphisms, both variances against all inventory"


def _invertible_action(ctx, f, X):
    _check_algebra(ctx, f.source, f.target)
    n = ctx.n
    F = ctx.algebra.field
    src = ctx.resolver.ext(X, f.source, n + 1)
    dst = ctx.resolver.ext(X, f.target, n + 1)
    if src.dim != dst.dim:
        return False
    cols = [dst.coords(push_out(f, g)).a for g in src.basis_elements()]
    if cols and rank(Matrix.from_columns(F, dst.dim, cols)) != dst.dim:
        return False
    src = ctx.resolver.ext(f.target, X, n + 1)
    dst = ctx.resolver.ext(f.source, X, n + 1)
    if src.dim != dst.dim:
        return False
    cols = [dst.coords(pull_back(g, f)).a for g in src.basis_elements()]
    if cols and rank(Matrix.from_columns(F, dst.dim, cols)) != dst.dim:
        return False
    return True


def criterion_5(fx, rng, samples=100):
    """composition is independent of the right unit factorization"""
    name, ctx, inv = fx.discovered
    F = ctx.algebra.field
    pool = [m for m in inv if not ctx.is_n_projective(m)]
    done = 0
    while done < samples:
        M, N, K = (rng.choice(pool) for _ in range(3))
        pmMN = p_subspace(ctx, M, ctx.syz(N))
        pmNK = p_subspace(ctx, N, ctx.syz(K))
        if pmMN.dim == 0 or pmNK.dim == 0:
            continue
        gamma = pmMN.representative(_rand_column(rng, F, pmMN.dim))
        beta = pmNK.representative(_rand_column(rng, F, pmNK.dim))
        a = compose_mod_p(ctx, N, K, beta, gamma, ruf_variant="canonical")
        b = compose_mod_p(ctx, N, K, beta, gamma, ruf_variant="padded")
        if a != b:
            return False, f"{name}: RUF variants disagree on ({M.name},{N.name},{K.name})"
        done += 1
    return True, f"{done} seeded (beta, gamma) pairs, both factorizations equal"


def criterion_6(fx, rng, per_module=12):
    """ring structure on the stable endomorphism side and the morphism phi
    ("phi is zero on phantoms" holds by construction, since phi and
    is_phantom read one unit_coset; criterion 3 checks is_phantom)"""
    rings = 0
    for name, ctx, inv in fx:
        for M in inv:
            ring = ext_ring(ctx, M)
            d = ring.dim
            basis = [Matrix.unit(ctx.algebra.field, d, j) for j in range(d)]
            for x in basis:
                if ring.multiply(ring.one, x) != x or \
                        ring.multiply(x, ring.one) != x:
                    return False, f"{name}: identity law fails on {M.name}"
                for y in basis:
                    for z in basis:
                        if ring.multiply(ring.multiply(x, y), z) != \
                                ring.multiply(x, ring.multiply(y, z)):
                            return False, f"{name}: associativity fails on {M.name}"
                        if ring.multiply(x, y + z) != \
                                ring.multiply(x, y) + ring.multiply(x, z):
                            return False, f"{name}: left distributivity fails"
                        if ring.multiply(y + z, x) != \
                                ring.multiply(y, x) + ring.multiply(z, x):
                            return False, f"{name}: right distributivity fails"
            if phi(ctx, identity_map(M)) != ring.one:
                return False, f"{name}: phi not unital on {M.name}"
            for _ in range(per_module):
                f = _rand_hom(ctx, rng, M, M)
                g = _rand_hom(ctx, rng, M, M)
                if phi(ctx, g * f) != ring.multiply(phi(ctx, g), phi(ctx, f)):
                    return False, f"{name}: phi not multiplicative on {M.name}"
                if phi(ctx, f + g) != phi(ctx, f) + phi(ctx, g):
                    return False, f"{name}: phi not additive on {M.name}"
                if is_quasi_invertible(ctx, f) and not ring.is_invertible(phi(ctx, f)):
                    return False, f"{name}: phi misses a unit on {M.name}"
                if is_phantom(ctx, f) and not phi(ctx, f).is_zero():
                    return False, f"{name}: phi nonzero on a phantom on {M.name}"
            rings += 1
    return True, f"{rings} endomorphism rings: axioms exact, phi a unital ring map"


def criterion_7(fx, rng, per_fixture=200):
    """the canonical functor: additive, functorial, kills phantoms,
    inverts quasi-invertibles ("T kills phantoms" holds by construction,
    since T and is_phantom read one unit_coset; criterion 3 checks
    is_phantom)"""
    total = sigmas = phantoms = 0
    for name, ctx, inv in fx:
        for _ in range(per_fixture):
            M, N, K = (rng.choice(inv) for _ in range(3))
            f1 = _rand_hom(ctx, rng, M, N)
            f2 = _rand_hom(ctx, rng, M, N)
            g = _rand_hom(ctx, rng, N, K)
            if functor_T(ctx, f1 + f2) != functor_T(ctx, f1) + functor_T(ctx, f2):
                return False, f"{name}: T not additive"
            if functor_T(ctx, g * f1) != stable_compose(
                    ctx, functor_T(ctx, g), functor_T(ctx, f1)):
                return False, f"{name}: T not functorial"
            if is_quasi_invertible(ctx, f1):
                sigmas += 1
                if not stable_is_iso(ctx, functor_T(ctx, f1)):
                    return False, f"{name}: T of a quasi-invertible not iso"
            if is_phantom(ctx, f1):
                phantoms += 1
                if not functor_T(ctx, f1).is_zero():
                    return False, f"{name}: T nonzero on a phantom"
            total += 1
    return True, (f"{total} composable pairs; {sigmas} certified "
                  f"quasi-invertibles inverted, {phantoms} phantoms killed")


def criterion_8(fx, rng):
    """the syzygy map on stable homs is bijective"""
    count = 0
    for name, ctx, inv in fx:
        for M in inv:
            for N in inv:
                om = omega_iso(ctx, M, N)
                if not om.is_bijective():
                    return False, f"{name}: not bijective at ({M.name},{N.name})"
                count += 1
    return True, f"{count} inventory pairs, rank equals dimension throughout"


def criterion_9(fx, rng):
    """stable vanishing detects relative projectivity"""
    count = 0
    for name, ctx, inv in fx:
        for M in inv:
            if is_stably_zero(ctx, M) != ctx.is_n_projective(M):
                return False, f"{name}: mismatch on {M.name}"
            count += 1
    return True, f"{count} inventory modules, vanishing iff relative projective"


def criterion_10(fx, rng, per_fixture=20):
    """the two three-term exactness statements for stable homs"""
    total = 0
    for name, ctx, inv in fx:
        F = ctx.algebra.field
        done = 0
        while done < per_fixture:
            M = rng.choice(inv)
            N = rng.choice(inv)
            f = _rand_hom(ctx, rng, M, N)
            K, kincl = kernel_module(f)
            I, _, fc = image_module(f)
            if K.dim == 0 or I.dim == 0:
                continue
            check_conflation([K, M, I], [kincl, fc])
            X = rng.choice(inv)
            if not _exact_pair(ctx, F, kincl, fc, X, anchored=True):
                return False, f"{name}: stable hom sequence not exact"
            if not _exact_pair(ctx, F, kincl, fc, X, anchored=False):
                return False, f"{name}: Ext^n/P sequence not exact"
            done += 1
            total += 1
    return True, f"{total} seeded conflations, kernel equals image in both sequences"


def _exact_pair(ctx, F, kincl, fc, X, anchored):
    """Exactness of hom(I, X) -> hom(M, X) -> hom(K, X) in the middle."""
    K, M, I = kincl.source, kincl.target, fc.target
    target = ctx.syz(X) if anchored else X
    spI = p_subspace(ctx, I, target)
    spM = p_subspace(ctx, M, target)
    spK = p_subspace(ctx, K, target)
    g_cols = [spM.qcoords(pull_back(m, fc)).a for m in spI.basis_representatives()]
    f_cols = [spK.qcoords(pull_back(m, kincl)).a for m in spM.basis_representatives()]
    gmat = Matrix.from_columns(F, spM.dim, g_cols)
    fmat = Matrix.from_columns(F, spK.dim, f_cols)
    if not (fmat * gmat).is_zero():
        return False
    return rank(gmat) == kernel_basis(fmat).cols


def criterion_11(fx, rng):
    """explicit sequences against cocycle arithmetic (the oracle pair)"""
    checked = 0
    for name, ctx, inv in fx:
        deg = max(ctx.n, 1)
        for M in inv:
            for N in inv:
                basis = ctx.resolver.ext(M, N, deg).basis_elements()
                for gamma in basis:
                    seq = gamma.sequence()
                    back = class_from_sequence(ctx.resolver, seq)
                    if not back.same_class(gamma):
                        return False, f"{name}: round trip fails ({M.name},{N.name})"
                    h = _rand_hom(ctx, rng, rng.choice(inv), M)
                    lhs = pull_back(gamma, h)
                    rhs = class_from_sequence(
                        ctx.resolver, pullback_sequence(seq, h))
                    if not lhs.same_class(rhs):
                        return False, f"{name}: pull-back oracle fails"
                    l = _rand_hom(ctx, rng, N, rng.choice(inv))
                    lhs = push_out(l, gamma)
                    rhs = class_from_sequence(
                        ctx.resolver, pushout_sequence(l, seq))
                    if not lhs.same_class(rhs):
                        return False, f"{name}: push-out oracle fails"
                    other = basis[0]
                    lhs = baer_sum(gamma, other)
                    rhs = class_from_sequence(
                        ctx.resolver,
                        baer_sum_sequence(seq, other.sequence()))
                    if not lhs.same_class(rhs):
                        return False, f"{name}: Baer sum oracle fails"
                    checked += 1
    return True, f"{checked} basis classes: sequence ops match cocycle ops"


def criterion_12(fx, rng):
    """the discovered fixture is genuinely parameter 1 and stably nontrivial"""
    name, ctx, inv = fx.discovered
    from .frobenius import gorenstein_parameter
    gp = gorenstein_parameter(ctx.algebra, 8, ctx.resolver)
    if gp != 1:
        return False, f"{name}: parameter is {gp}"
    if all(proj_dim(ctx.resolver, S, ctx.bound) is not None
           for S in simples(ctx.algebra)):
        return False, f"{name}: global dimension is finite"
    best = max(stable_hom(ctx, M, N).dim for M in inv for N in inv)
    if best < 1:
        return False, f"{name}: all stable hom-spaces vanish"
    return True, (f"{name}: parameter 1, infinite global dimension, "
                  f"max stable hom dim {best}; criteria 2-11 ran on it")


def criterion_13(fx, rng):
    """hom dimensions agree under the embedding of the G-projective
    stable category"""
    name, ctx, inv = fx.discovered
    gproj = [M for M in inv if ctx.is_gproj(M)]
    if len(gproj) < 2:
        return False, f"{name}: not enough Gorenstein projectives found"
    pairs = 0
    for M in gproj:
        for N in gproj:
            a, b = embedding_dim_check(ctx, M, N)
            if a != b:
                return False, f"{name}: {M.name},{N.name}: {a} != {b}"
            pairs += 1
    return True, f"{pairs} G-projective pairs, both hom dimensions equal"


CRITERIA = [
    (1, "classical stable oracle, n = 0", criterion_1),
    (2, "quotient dimension identities", criterion_2),
    (3, "left/right phantom symmetry", criterion_3),
    (4, "quasi-invertible symmetry", criterion_4),
    (5, "composition independent of factorization", criterion_5),
    (6, "stable endomorphism ring and phi", criterion_6),
    (7, "canonical functor surrogates", criterion_7),
    (8, "syzygy isomorphism bijective", criterion_8),
    (9, "stable vanishing criterion", criterion_9),
    (10, "three-term exactness", criterion_10),
    (11, "sequence vs cocycle oracle", criterion_11),
    (12, "nontrivial parameter-1 fixture", criterion_12),
    (13, "G-projective embedding dimensions", criterion_13),
]


def run_suite(seed: int = 0, bound=None, only=None, out=print):
    """Run the acceptance criteria; returns the list of CriterionResult."""
    fx = _Fixtures(bound=bound)
    results = []
    for number, name, fn in CRITERIA:
        if only is not None and number not in only:
            continue
        rng = random.Random(seed + number)
        t0 = time.perf_counter()
        passed, detail = fn(fx, rng)
        dt = time.perf_counter() - t0
        res = CriterionResult(number, name, passed, detail, dt)
        results.append(res)
        if out is not None:
            out(res.line())
    return results
