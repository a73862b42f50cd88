import random

import pytest

from stablext import phantom, resolve
from stablext.exactlin import GF, QQ, Matrix, solve
from stablext.algmod import (
    ModuleMap, factor_through, hom_space, identity_map, projective_indecs,
    random_hom, simples, zero_map,
)
from stablext.fixtures import (
    dual_numbers, hereditary_a2, indecomposable_inventory, t2_dual_numbers,
    trunc_poly,
)
from stablext.frobenius import CertificationError, FrobeniusContext
from stablext.phantom import (
    angled, coangled, compose_mod_p, divide_by_sigma, ext_ring,
    is_phantom, is_phantom_right, is_quasi_invertible, luf,
    p_member, p_member_factoring, p_subspace, phi, ruf,
)
from stablext.resolve import (
    ExtElement, connecting_map, pull_back, push_out, sequence_from_element,
)


@pytest.fixture(scope="module")
def dn_ctx():
    return FrobeniusContext(dual_numbers(GF(2)))


@pytest.fixture(scope="module")
def tp_ctx():
    return FrobeniusContext(trunc_poly(3, GF(3)))


@pytest.fixture(scope="module")
def t2_ctx():
    return FrobeniusContext(t2_dual_numbers(GF(2)))


def elt0(ctx, f):
    return ExtElement(ctx.resolver, f.source, f.target, 0, f, _skip_checks=True)


# -- P membership ---------------------------------------------------------

def test_pullback_through_projective_is_p(t2_ctx):
    ctx = t2_ctx
    rng = random.Random(1)
    P = projective_indecs(ctx.algebra)[0]
    S = simples(ctx.algebra)[0]
    OmS = ctx.syz(S)
    eta_space = ctx.resolver.ext(P, OmS, 1)
    for M in (simples(ctx.algebra)[1], P):
        for eta in eta_space.basis_elements():
            for f in hom_space(M, P):
                assert p_member(ctx, pull_back(eta, f))


def test_p_two_tests_agree_n0(dn_ctx):
    ctx = dn_ctx
    inv = indecomposable_inventory(ctx)
    for M in inv:
        for N in inv:
            for f in hom_space(M, N):
                g = elt0(ctx, f)
                assert p_member(ctx, g) == p_member_factoring(ctx, g)


def test_identity_of_simple_not_p(dn_ctx):
    S = simples(dn_ctx.algebra)[0]
    assert not p_member(dn_ctx, elt0(dn_ctx, identity_map(S)))
    assert not p_member_factoring(dn_ctx, elt0(dn_ctx, identity_map(S)))


def test_p_two_tests_agree_n1(t2_ctx):
    ctx = t2_ctx
    inv = indecomposable_inventory(ctx)[:5]
    for M in inv:
        for N in inv:
            space = ctx.resolver.ext(M, N, 1)
            for g in space.basis_elements():
                assert p_member(ctx, g) == p_member_factoring(ctx, g)


def test_dim_identities_47(dn_ctx, t2_ctx):
    # dim Ext^n(M,N)/P = dim Ext^{n+1}(M, syz N) = dim Ext^{n+1}(cosyz M, N)
    for ctx in (dn_ctx, t2_ctx):
        inv = indecomposable_inventory(ctx)[:5]
        n = ctx.n
        for M in inv:
            for N in inv:
                lhs = p_subspace(ctx, M, N).dim
                mid = ctx.resolver.ext(M, ctx.resolver.syzygy(N, 1), n + 1).dim
                rhs = ctx.resolver.ext(ctx.resolver.cosyzygy(M, 1), N, n + 1).dim
                assert lhs == mid == rhs, (M.name, N.name, lhs, mid, rhs)


# -- quasi-invertibles -------------------------------------------------------

def test_identity_quasi_invertible(dn_ctx, t2_ctx):
    for ctx in (dn_ctx, t2_ctx):
        for M in indecomposable_inventory(ctx)[:4]:
            assert is_quasi_invertible(ctx, identity_map(M))


def test_zero_endo_of_simple_not_quasi_invertible(dn_ctx):
    S = simples(dn_ctx.algebra)[0]
    assert not is_quasi_invertible(dn_ctx, zero_map(S, S))
    assert dn_ctx.resolver.ext(S, S, 1).dim != 0


def test_projective_identity_quasi_invertible(t2_ctx):
    P = projective_indecs(t2_ctx.algebra)[0]
    assert is_quasi_invertible(t2_ctx, identity_map(P))
    assert is_quasi_invertible(t2_ctx, zero_map(P, P))


def test_sigma_brute_force_agreement(t2_ctx):
    # cokernel criterion vs invertibility of the induced Ext^{n+1} maps
    ctx = t2_ctx
    rng = random.Random(23)
    inv = indecomposable_inventory(ctx)[:4]
    samples = 0
    for _ in range(30):
        M = rng.choice(inv)
        N = rng.choice(inv)
        f = random_hom(rng, M, N)
        claimed = is_quasi_invertible(ctx, f)
        actual = _acts_invertibly(ctx, f, inv)
        assert claimed == actual, (M.name, N.name)
        samples += 1
    assert samples == 30


def _acts_invertibly(ctx, f, tests):
    import numpy as np
    n = ctx.n
    F = ctx.algebra.field
    for X in tests:
        src = ctx.resolver.ext(X, f.source, n + 1)
        dst = ctx.resolver.ext(X, f.target, n + 1)
        if src.dim != dst.dim:
            return False
        cols = [dst.coords(push_out(f, g)).a for g in src.basis_elements()]
        if cols:
            m = Matrix(F, np.hstack(cols))
            from stablext.exactlin import rank
            if rank(m) != dst.dim:
                return False
        src = ctx.resolver.ext(f.target, X, n + 1)
        dst = ctx.resolver.ext(f.source, X, n + 1)
        if src.dim != dst.dim:
            return False
        cols = [dst.coords(pull_back(g, f)).a for g in src.basis_elements()]
        if cols:
            m = Matrix(F, np.hstack(cols))
            from stablext.exactlin import rank
            if rank(m) != dst.dim:
                return False
    return True


# -- phantoms -------------------------------------------------------------------

def test_factoring_through_projective_is_phantom(t2_ctx):
    ctx = t2_ctx
    rng = random.Random(5)
    S1, S2 = simples(ctx.algebra)
    P = projective_indecs(ctx.algebra)[0]
    for _ in range(5):
        g = random_hom(rng, S1, P)
        h = random_hom(rng, P, S2)
        f = h * g
        assert is_phantom(ctx, f)
        assert is_phantom_right(ctx, f)


def test_zero_map_is_phantom(dn_ctx, t2_ctx):
    for ctx in (dn_ctx, t2_ctx):
        S = simples(ctx.algebra)[0]
        assert is_phantom(ctx, zero_map(S, S))


def test_quasi_invertible_not_phantom(t2_ctx):
    ctx = t2_ctx
    S = simples(ctx.algebra)[0]
    # S is not relative projective over T2 (infinite pd simple exists)
    if not ctx.is_n_projective(S):
        assert is_quasi_invertible(ctx, identity_map(S))
        assert not is_phantom(ctx, identity_map(S))


def test_left_right_phantom_agree(dn_ctx, t2_ctx):
    for ctx in (dn_ctx, t2_ctx):
        rng = random.Random(17)
        inv = indecomposable_inventory(ctx)[:4]
        for _ in range(25):
            M = rng.choice(inv)
            N = rng.choice(inv)
            f = random_hom(rng, M, N)
            assert is_phantom(ctx, f) == is_phantom_right(ctx, f)


# -- unit factorizations -----------------------------------------------------------

def test_luf_dual_numbers_generator(dn_ctx):
    # over F2[x]/(x^2) the canonical generator factors as id against S->A->S
    ctx = dn_ctx
    S = simples(ctx.algebra)[0]
    # degree-1 factorizations still make sense in the 0-Frobenius context
    g = ctx.resolver.ext(S, ctx.resolver.syzygy(S, 1), 1).basis_elements()[0]
    gmap, delta = luf(ctx, g)
    assert delta.conflation.length == 1
    assert gmap.rank() == 1          # an isomorphism of 1-dim modules


def test_ruf_round_trip_t2(t2_ctx):
    ctx = t2_ctx
    for M in indecomposable_inventory(ctx)[:4]:
        for N in indecomposable_inventory(ctx)[:4]:
            OmN = ctx.syz(N)
            space = ctx.resolver.ext(M, OmN, 1)
            for gamma in space.basis_elements():
                delta, f = ruf(ctx, gamma)
                assert pull_back(delta.element, f).same_class(gamma)
                delta_p, f_p = ruf(ctx, gamma, variant="padded")
                assert pull_back(delta_p.element, f_p).same_class(gamma)


def test_luf_round_trip_t2(t2_ctx):
    ctx = t2_ctx
    for M in indecomposable_inventory(ctx)[:4]:
        OmM = ctx.syz(M)
        space = ctx.resolver.ext(M, OmM, 1)
        for gamma in space.basis_elements():
            g, delta = luf(ctx, gamma)
            assert push_out(g, delta.element).same_class(gamma)


def _hom_basis_factor(resolver, rhs, pre):
    """phi with phi . pre = rhs, solved over the hom basis of
    Hom(pre.target, rhs.target): a route to factor_through's answer that
    shares no code with it."""
    U, V = pre.target, rhs.target
    hb = resolver.hom_basis(U, V)
    if U.dim == 0 or V.dim == 0 or not hb.maps:
        return zero_map(U, V) if rhs.is_zero() else None
    cols = [(h.matrix * pre.matrix).flatten().a for h in hb.maps]
    b = rhs.matrix.flatten()
    x = solve(Matrix.from_columns(resolver.algebra.field, b.rows, cols), b)
    return None if x is None else hb.combine(x)


@pytest.mark.parametrize("algebra", [
    lambda: t2_dual_numbers(GF(2)), lambda: trunc_poly(3, GF(3)),
    lambda: hereditary_a2(QQ)], ids=["t2-GF2", "trunc3-GF3", "A2-Q"])
def test_cover_factorizations_match_hom_basis_solve(monkeypatch, algebra):
    # sequence_from_element, luf and the contravariant connecting map each
    # factor a cocycle through a cover P_k ->> syz^k; on the inventory each
    # answer must equal the hom-basis solve
    ctx = FrobeniusContext(algebra())
    R = ctx.resolver
    calls = []

    def recording(*pairs):
        x = factor_through(*pairs)
        if len(pairs) == 1:
            calls.append((pairs[0], x))
        return x

    monkeypatch.setattr(resolve, "factor_through", recording)
    monkeypatch.setattr(phantom, "factor_through", recording)
    sites = {
        "sequence": lambda M, N: [sequence_from_element(gamma) for gamma
                                  in R.ext(M, N, 1).basis_elements()],
        "luf": lambda M, N: [luf(ctx, gamma) for gamma
                             in R.ext(M, N, 1).basis_elements()],
        "connecting": lambda M, N: connecting_map(
            R, R.resolution(M).truncation(1), N, 0, covariant=False),
    }
    inv = indecomposable_inventory(ctx)
    for site, run in sites.items():
        for M in inv:
            for N in inv:
                run(M, N)
        assert calls, site
        for (f, q), x in calls:
            assert x == _hom_basis_factor(R, f, q)
        calls.clear()


def test_ruf_zero_class(t2_ctx):
    ctx = t2_ctx
    S = simples(ctx.algebra)[0]
    OmS = ctx.syz(S)
    res = ctx.resolver.resolution(S)
    zero = ExtElement(ctx.resolver, S, OmS, 1,
                      zero_map(res.term(1), OmS))
    delta, f = ruf(ctx, zero)
    assert pull_back(delta.element, f).is_coboundary()


# -- angled / co-angled pairs -------------------------------------------------------

def test_coangled_equal_inputs(t2_ctx):
    ctx = t2_ctx
    S = simples(ctx.algebra)[0]
    d = ctx.unit_up(ctx.syz(S), 1)
    pair = coangled(ctx, d, d)
    assert pair.a1 == pair.a2
    assert pair.delta is d


def test_coangled_distinct_units(t2_ctx):
    ctx = t2_ctx
    S = simples(ctx.algebra)[0]
    OmS = ctx.syz(S)
    dN = ctx.unit_down(S, 1)          # in U^1(OmS) as well
    dup = ctx.unit_up(OmS, 1)
    pair = coangled(ctx, dN, dup)
    # certification happened inside; spot-check the class identities again
    assert pull_back(dN.element, pair.a1).same_class(pair.delta.element)
    assert pull_back(dup.element, pair.a2).same_class(pair.delta.element)
    assert is_quasi_invertible(ctx, pair.a1)
    assert is_quasi_invertible(ctx, pair.a2)


@pytest.mark.parametrize("unit", ["unit_up", "padded", "co-angled"])
def test_unit_failure_names_end_degree_and_term(t2_ctx, monkeypatch, unit):
    # every unit is certified by its constructor, with one message: the
    # canonical co-unit, the padded unit of a right unit factorization and
    # the glued unit of a co-angled pair
    ctx = FrobeniusContext(t2_ctx.algebra)
    S = simples(ctx.algebra)[0]
    I1 = ctx.resolver.coresolution(S).term(1)
    if unit == "unit_up":
        X, dim = S.name, I1.dim
        build = lambda: ctx.unit_up(S, 1)
    elif unit == "padded":
        ctx.unit_up(S, 1)
        # the padded unit starts at S (+) 0, the direct sum of the two ends
        X, dim = f"{S.name}(+)0", I1.dim + ctx.envelope(S).target.dim
        build = lambda: phantom._ruf_unit(ctx, S, 1, "padded")
    else:
        d1, d2 = ctx.unit_down(S, 1), ctx.unit_up(ctx.syz(S), 1)
        X = ctx.syz(S).name
        dim = d1.conflation.modules[1].dim + d2.conflation.modules[1].dim
        build = lambda: coangled(ctx, d1, d2)
    monkeypatch.setattr(ctx, "is_n_projective", lambda M: False)
    with pytest.raises(CertificationError) as err:
        build()
    assert str(err.value) == (
        f"unit conflation of {X} in degree 1: injective middle "
        f"term I1 of dimension {dim} fails relative projectivity")


def test_angled_distinct_units(t2_ctx):
    ctx = t2_ctx
    S = simples(ctx.algebra)[0]
    d1 = ctx.unit_down(S, 1)
    # a second unit in U_1(S): pad the canonical one with a projective
    from stablext.resolve import direct_sum_conflation
    from stablext.phantom import _trivial_unit
    from stablext.frobenius import UnitConflation
    from stablext.resolve import class_from_sequence
    P = projective_indecs(ctx.algebra)[1]
    padded = direct_sum_conflation(d1.conflation, _trivial_unit(ctx, P, 1))
    # fix the right end back to S by pushing nothing: ends are S (+) P here,
    # so instead pad on the left leg only: use the dual of the padded co-unit
    d2conf = padded
    assert d2conf.right.dim == S.dim + P.dim
    # genuine second unit on S: splice is overkill; reuse canonical via cache
    d1b = ctx.unit_down(S, 1)
    pair = angled(ctx, d1, d1b)
    assert pair.a1 == pair.a2


def test_angled_nontrivial(t2_ctx):
    # two structurally different units ending at the same module
    ctx = t2_ctx
    S = simples(ctx.algebra)[0]
    d1 = ctx.unit_down(S, 1)
    d2 = _padded_down_unit(ctx, S)
    pair = angled(ctx, d1, d2)
    assert push_out(pair.a1, d1.element).same_class(pair.delta.element)
    assert push_out(pair.a2, d2.element).same_class(pair.delta.element)
    assert is_quasi_invertible(ctx, pair.a1)
    assert is_quasi_invertible(ctx, pair.a2)


def _padded_down_unit(ctx, N):
    # a second length-1 unit ending at N: pad left and middle with Q -> Q -> 0
    from stablext.resolve import direct_sum_conflation
    from stablext.frobenius import UnitConflation
    from stablext.algmod import Conflation, zero_module
    assert ctx.n == 1
    base = ctx.unit_down(N, 1).conflation
    Q = projective_indecs(ctx.algebra)[0]
    Z = zero_module(ctx.algebra)
    pad = Conflation([Q, Q, Z], [identity_map(Q), zero_map(Q, Z)])
    return UnitConflation(ctx, direct_sum_conflation(base, pad), "down")


# -- division -----------------------------------------------------------------------

def test_divide_by_identity(t2_ctx):
    ctx = t2_ctx
    S = simples(ctx.algebra)[0]
    OmS = ctx.syz(S)
    pm = p_subspace(ctx, S, OmS)
    if pm.dim:
        coords = pm.qcoords(pm.basis_representatives()[0])
        out = divide_by_sigma(ctx, identity_map(S), "right", OmS, coords)
        assert out == coords


def test_divide_zero(t2_ctx):
    ctx = t2_ctx
    S = simples(ctx.algebra)[0]
    OmS = ctx.syz(S)
    pm = p_subspace(ctx, S, OmS)
    out = divide_by_sigma(ctx, identity_map(S), "right", OmS, pm.zero())
    assert out.is_zero()


def test_divide_round_trip(t2_ctx):
    ctx = t2_ctx
    rng = random.Random(31)
    S = simples(ctx.algebra)[0]
    OmS = ctx.syz(S)
    d = ctx.unit_down(S, 1)
    dup = ctx.unit_up(OmS, 1)
    pair = coangled(ctx, d, dup)
    b = pair.a2
    src = p_subspace(ctx, b.target, OmS)
    dst = p_subspace(ctx, b.source, OmS)
    for g in src.basis_representatives():
        coords = dst.qcoords(pull_back(g, b))
        back = divide_by_sigma(ctx, b, "right", OmS, coords)
        assert back == src.qcoords(g)


# -- composition ---------------------------------------------------------------------

def test_compose_identity_laws(t2_ctx):
    ctx = t2_ctx
    inv = indecomposable_inventory(ctx)[:4]
    for M in inv:
        for N in inv:
            pmMN = p_subspace(ctx, M, ctx.syz(N))
            dN = ctx.unit_element(N)
            dM = ctx.unit_element(M)
            for gamma in pmMN.basis_representatives():
                left = compose_mod_p(ctx, N, N, dN, gamma)
                assert left == pmMN.qcoords(gamma)
                right = compose_mod_p(ctx, M, N, gamma, dM)
                assert right == pmMN.qcoords(gamma)


def test_compose_with_p_class_is_zero(t2_ctx):
    ctx = t2_ctx
    S1, S2 = simples(ctx.algebra)
    OmS2 = ctx.syz(S2)
    ext = ctx.resolver.ext(S1, OmS2, 1)
    pm = p_subspace(ctx, S1, OmS2)
    # find a nonzero P-class if any exists
    for elt in ext.basis_elements():
        if pm.qcoords(elt).is_zero() and not ext.coords(elt).is_zero():
            dS1 = ctx.unit_element(S1)
            out = compose_mod_p(ctx, S1, S2, elt, dS1)
            assert out.is_zero()
            break


def test_compose_n0_matches_stable_composition(dn_ctx):
    ctx = dn_ctx
    inv = indecomposable_inventory(ctx)
    rng = random.Random(3)
    for _ in range(20):
        M, N, K = (rng.choice(inv) for _ in range(3))
        f = random_hom(rng, M, N)
        g = random_hom(rng, N, K)
        lhs = compose_mod_p(ctx, N, K, elt0(ctx, g), elt0(ctx, f))
        pm = p_subspace(ctx, M, K)
        assert lhs == pm.qcoords(elt0(ctx, g * f))


def test_compose_two_ruf_variants_agree(t2_ctx):
    ctx = t2_ctx
    rng = random.Random(41)
    inv = [m for m in indecomposable_inventory(ctx) if not ctx.is_n_projective(m)]
    hits = 0
    for _ in range(12):
        M, N, K = (rng.choice(inv) for _ in range(3))
        pmMN = p_subspace(ctx, M, ctx.syz(N))
        pmNK = p_subspace(ctx, N, ctx.syz(K))
        if pmMN.dim == 0 or pmNK.dim == 0:
            continue
        gamma = pmMN.representative(_rand_coords(rng, ctx, pmMN.dim))
        beta = pmNK.representative(_rand_coords(rng, ctx, pmNK.dim))
        a = compose_mod_p(ctx, N, K, beta, gamma, ruf_variant="canonical")
        b = compose_mod_p(ctx, N, K, beta, gamma, ruf_variant="padded")
        assert a == b
        hits += 1
    assert hits >= 3


def _rand_coords(rng, ctx, d):
    F = ctx.algebra.field
    m = Matrix.zeros(F, d, 1)
    for i in range(d):
        m.a[i, 0] = F.of(rng.randrange(F.p))
    return m


def test_compose_associative_samples(t2_ctx):
    ctx = t2_ctx
    rng = random.Random(47)
    inv = [m for m in indecomposable_inventory(ctx) if not ctx.is_n_projective(m)]
    hits = 0
    for _ in range(10):
        M, N, K, L = (rng.choice(inv) for _ in range(4))
        pmMN = p_subspace(ctx, M, ctx.syz(N))
        pmNK = p_subspace(ctx, N, ctx.syz(K))
        pmKL = p_subspace(ctx, K, ctx.syz(L))
        if 0 in (pmMN.dim, pmNK.dim, pmKL.dim):
            continue
        al = pmMN.representative(_rand_coords(rng, ctx, pmMN.dim))
        be = pmNK.representative(_rand_coords(rng, ctx, pmNK.dim))
        ga = pmKL.representative(_rand_coords(rng, ctx, pmKL.dim))
        bg = p_subspace(ctx, N, ctx.syz(L)).representative(
            compose_mod_p(ctx, K, L, ga, be))
        lhs = compose_mod_p(ctx, N, L, bg, al)
        ba = p_subspace(ctx, M, ctx.syz(K)).representative(
            compose_mod_p(ctx, N, K, be, al))
        rhs = compose_mod_p(ctx, K, L, ga, ba)
        assert lhs == rhs
        hits += 1
    assert hits >= 2


def test_compose_distributive_samples(t2_ctx):
    ctx = t2_ctx
    rng = random.Random(53)
    inv = [m for m in indecomposable_inventory(ctx) if not ctx.is_n_projective(m)]
    hits = 0
    for _ in range(10):
        M, N, K = (rng.choice(inv) for _ in range(3))
        pmMN = p_subspace(ctx, M, ctx.syz(N))
        pmNK = p_subspace(ctx, N, ctx.syz(K))
        if pmMN.dim == 0 or pmNK.dim == 0:
            continue
        ga = pmMN.representative(_rand_coords(rng, ctx, pmMN.dim))
        b1 = pmNK.representative(_rand_coords(rng, ctx, pmNK.dim))
        b2 = pmNK.representative(_rand_coords(rng, ctx, pmNK.dim))
        from stablext.resolve import baer_sum
        lhs = compose_mod_p(ctx, N, K, baer_sum(b1, b2), ga)
        rhs = compose_mod_p(ctx, N, K, b1, ga) + compose_mod_p(ctx, N, K, b2, ga)
        assert lhs == rhs
        hits += 1
    assert hits >= 2


# -- ring and phi -------------------------------------------------------------------

def test_ring_dual_numbers_simple(dn_ctx):
    ctx = dn_ctx
    S = simples(ctx.algebra)[0]
    ring = ext_ring(ctx, S)
    assert ring.dim == 1
    one = ring.one
    assert not one.is_zero()
    assert ring.multiply(one, one) == one     # the field table of F_2


def test_phi_identity_and_zero(dn_ctx, t2_ctx):
    for ctx in (dn_ctx, t2_ctx):
        S = simples(ctx.algebra)[0]
        ring = ext_ring(ctx, S)
        assert phi(ctx, identity_map(S)) == ring.one
        assert phi(ctx, zero_map(S, S)).is_zero()


def test_phi_multiplicative(t2_ctx):
    ctx = t2_ctx
    rng = random.Random(61)
    S = simples(ctx.algebra)[0]
    ring = ext_ring(ctx, S)
    for _ in range(10):
        f = random_hom(rng, S, S)
        g = random_hom(rng, S, S)
        assert phi(ctx, g * f) == ring.multiply(phi(ctx, g), phi(ctx, f))


def test_phi_of_sigma_invertible_phantom_zero(t2_ctx):
    ctx = t2_ctx
    rng = random.Random(67)
    inv = indecomposable_inventory(ctx)[:4]
    for M in inv:
        ring = ext_ring(ctx, M)
        for _ in range(6):
            f = random_hom(rng, M, M)
            if is_quasi_invertible(ctx, f):
                assert ring.is_invertible(phi(ctx, f))
            if is_phantom(ctx, f):
                assert phi(ctx, f).is_zero()
