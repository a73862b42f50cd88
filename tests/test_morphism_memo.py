"""The per-morphism answers of phantom and stablecat are memoized by map
structure: they must equal the unmemoized formulas, be computed once, stay
read-only, and refuse maps over another algebra before any cache lookup."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from stablext import suites
from stablext.algmod import (
    cokernel_module, direct_sum, identity_map, simples, zero_map, zero_module,
)
from stablext.exactlin import QQ, Matrix, solve
from stablext.fixtures import dual_numbers
from stablext.frobenius import FrobeniusContext
from stablext.phantom import (
    _pullback_matrix, _ruf_unit, coangled,
    compose_mod_p, divide_by_sigma, is_phantom, is_phantom_right,
    is_quasi_invertible, p_member_factoring, p_subspace, phi, ruf, unit_coset,
)
from stablext.resolve import ExtElement, pull_back
from stablext.stablecat import classical_stable_class, functor_T

NEW_KINDS = ("unit_coset", "quasi_inv", "ruf", "beta_prime")


@pytest.fixture(scope="module")
def fx():
    return suites._Fixtures()


def _memos(ctx):
    return {id(m): m for m in (ctx.memo, ctx.resolver._memo,
                               ctx.resolver.opposite()._memo,
                               ctx.opposite().memo)}.values()


def _counts(ctx):
    return Counter(key[0] for m in _memos(ctx) for key in m._store)


# -- the unmemoized formulas ---------------------------------------------------

def _ref_coset(ctx, f):
    """Pull the target's canonical unit back along f, then take its coset."""
    space = p_subspace(ctx, f.source, ctx.syz(f.target))
    return space.qcoords(pull_back(ctx.unit_element(f.target), f))


def _ref_quasi_invertible(ctx, f):
    """Direct sum, cokernel of [f, e]^t, then relative projectivity."""
    e = ctx.envelope(f.source)
    _, injs, _ = direct_sum([f.target, e.target])
    L, _ = cokernel_module((injs[0] * f) + (injs[1] * e))
    return ctx.is_n_projective(L)


def _ref_compose(ctx, N, K, beta, gamma, variant):
    """The composition with the right unit factorization, the gluing and
    the division all recomputed."""
    OmK = ctx.syz(K)
    out_space = p_subspace(ctx, gamma.M, OmK)
    if ctx.n == 0:
        composed = ExtElement(ctx.resolver, gamma.M, K, 0,
                              beta.cocycle * gamma.cocycle, _skip_checks=True)
        return out_space.qcoords(composed)
    delta = _ruf_unit(ctx, gamma.N, gamma.n, variant)
    mat, homs = _pullback_matrix(ctx, delta, gamma.M)
    f = homs.combine(solve(mat, ctx.resolver.ext(gamma.M, gamma.N,
                                                 gamma.n).coords(gamma)))
    assert pull_back(delta.element, f).same_class(gamma)
    pair = coangled(ctx, ctx.unit_down(N, ctx.n), delta)
    a1, b1 = pair.a1, pair.a2
    mid_space = p_subspace(ctx, a1.source, OmK)
    divided = divide_by_sigma(ctx, b1, "right", OmK,
                              mid_space.qcoords(pull_back(beta, a1)))
    beta_prime = p_subspace(ctx, b1.target, OmK).representative(divided)
    return out_space.qcoords(pull_back(beta_prime, f))


# -- seeded maps -----------------------------------------------------------------

def _maps(ctx, inv, seed, count=24):
    """Seeded random maps between inventory modules, zero maps, and maps
    into, out of and between zero modules."""
    rng = random.Random(seed)
    Z = zero_module(ctx.algebra)
    maps = [zero_map(Z, Z)]
    for _ in range(count):
        M, N = rng.choice(inv), rng.choice(inv)
        maps.append(suites._rand_hom(ctx, rng, M, N))
        maps.append(suites._rand_hom(ctx, rng, M, M))
    for M in inv[:3]:
        maps += [zero_map(M, M), zero_map(M, Z), zero_map(Z, M)]
    return maps


def _answers(ctx, f):
    out = (unit_coset(ctx, f), is_phantom(ctx, f), is_quasi_invertible(ctx, f),
           functor_T(ctx, f).coords)
    if f.source == f.target:
        out += (phi(ctx, f),)
    return out


def _classes(ctx, inv, rng, count=8):
    """Seeded composable (N, K, beta, gamma) in the suite's anchoring, on
    the modules that are not relative projective, with nonzero cosets
    where the spaces are nonzero."""
    F = ctx.algebra.field
    pool = [m for m in inv if not ctx.is_n_projective(m)] or inv

    def column(d):
        c = suites._rand_column(rng, F, d)
        return Matrix.unit(F, d, 0) if d and c.is_zero() else c

    found = []
    for _ in range(count):
        M, N, K = (rng.choice(pool) for _ in range(3))
        pmMN = p_subspace(ctx, M, ctx.syz(N))
        pmNK = p_subspace(ctx, N, ctx.syz(K))
        gamma = pmMN.representative(column(pmMN.dim))
        beta = pmNK.representative(column(pmNK.dim))
        found.append((N, K, beta, gamma))
    return found


@pytest.mark.parametrize("index", range(4), ids=[
    "dual-numbers", "trunc-poly-3", "hereditary-a2", "discovered-1-gorenstein"])
def test_memoized_answers_match_the_formulas(fx, index):
    name, ctx, inv = fx.items[index]
    maps = _maps(ctx, inv, seed=100 + index)
    for f in maps:
        coset = _ref_coset(ctx, f)
        expected = (coset, coset.is_zero(), _ref_quasi_invertible(ctx, f),
                    coset)
        if f.source == f.target:
            expected += (coset,)
        first = _answers(ctx, f)
        assert first == expected, (name, f)
        assert _answers(ctx, f) == expected, (name, f)
    nonzero = 0
    for N, K, beta, gamma in _classes(ctx, inv, random.Random(200 + index)):
        nonzero += not any(p_subspace(ctx, c.M, c.N).qcoords(c).is_zero()
                           for c in (beta, gamma))
        for variant in ("canonical", "padded") if ctx.n else ("canonical",):
            want = _ref_compose(ctx, N, K, beta, gamma, variant)
            for _ in range(2):
                assert compose_mod_p(ctx, N, K, beta, gamma, variant) == want
    # hereditary A2 has no nonzero stable homs at n = 1
    assert nonzero or name == "hereditary-a2"


@pytest.mark.parametrize("index", range(4))
def test_repeated_calls_add_no_entries(fx, index):
    _, ctx, inv = fx.items[index]
    maps = _maps(ctx, inv, seed=300 + index, count=8)
    classes = _classes(ctx, inv, random.Random(400 + index), count=3)

    def ask():
        for f in maps:
            _answers(ctx, f)
        for N, K, beta, gamma in classes:
            compose_mod_p(ctx, N, K, beta, gamma)

    ask()
    before = _counts(ctx)
    ask()
    assert _counts(ctx) == before


@pytest.mark.parametrize("index", range(4))
def test_oracles_add_no_entries_of_the_new_kinds(fx, index):
    _, ctx, inv = fx.items[index]
    before = _counts(ctx)
    for f in _maps(ctx, inv, seed=500 + index, count=8):
        is_phantom_right(ctx, f)
        classical_stable_class(ctx, f)
        for X in inv[:2]:
            suites._invertible_action(ctx, f, X)
        space = p_subspace(ctx, f.source, ctx.syz(f.target))
        for gamma in space.basis_representatives():
            p_member_factoring(ctx, gamma)
    after = _counts(ctx)
    for kind in NEW_KINDS:
        assert after[kind] == before[kind], kind


def test_returned_cosets_are_read_only(fx):
    _, ctx, inv = fx.discovered
    f = next(f for M in inv for f in ctx.resolver.hom_basis(M, M).maps
             if not _ref_coset(ctx, f).is_zero())
    original = _ref_coset(ctx, f)
    one = ctx.algebra.field.of(1)
    for coset in (unit_coset(ctx, f), phi(ctx, f), functor_T(ctx, f).coords):
        with pytest.raises(ValueError):
            coset.a[0, 0] = coset.a[0, 0] + one
    assert unit_coset(ctx, f) == original
    assert functor_T(ctx, f).coords == original
    # over Q the entries are Fractions in an object array, frozen the same way
    qctx = FrobeniusContext(dual_numbers(QQ))
    S = simples(qctx.algebra)[0]
    coset = unit_coset(qctx, identity_map(S))
    assert coset.rows == 1
    with pytest.raises(ValueError):
        coset.a[0, 0] = Fraction(7)
    assert unit_coset(qctx, identity_map(S)) == Matrix.unit(QQ, 1, 0)


def test_maps_over_another_algebra_are_refused(fx):
    # n = 1 maps over GF(2), asked of the n = 0 dual numbers over GF(2):
    # without the check, 18 of the 45 answers differed from their own
    # context's, and none raised
    _, own, inv = fx.discovered
    _, ctx, _ = fx.items[0]
    maps = [f for M in inv for N in inv
            for f in own.resolver.hom_basis(M, N).maps]
    assert len(maps) == 45
    before = _counts(ctx)
    asks = [unit_coset, is_phantom, is_quasi_invertible, functor_T,
            is_phantom_right, classical_stable_class,
            lambda c, f: suites._invertible_action(c, f, f.source)]
    for f in maps:
        for ask in asks + ([phi] if f.source == f.target else []):
            with pytest.raises(ValueError, match="context's algebra") as err:
                ask(ctx, f)
            assert own.algebra.name in str(err.value)
            assert ctx.algebra.name in str(err.value)
    gamma = own.unit_element(inv[0])
    for ask in (lambda: p_member_factoring(ctx, gamma),
                lambda: ruf(ctx, gamma),
                lambda: compose_mod_p(ctx, inv[0], inv[0], gamma, gamma)):
        with pytest.raises(ValueError, match="context's algebra"):
            ask()
    assert _counts(ctx) == before
