import itertools
import random

import numpy as np
import pytest

from stablext.exactlin import GF, QQ, Matrix, rank
from stablext.algmod import (
    ModuleMap, indecomposable_summands, is_isomorphic, projective_indecs,
    simples,
)
from stablext.fixtures import (
    cyclic_nakayama, dual_numbers, hereditary_a2, indecomposable_inventory,
    nakayama_parameter, t2_dual_numbers, trunc_poly,
)
from stablext.frobenius import (
    CertificationError, FrobeniusContext, gorenstein_one_search,
    gorenstein_parameter, proj_dim,
)
from stablext.resolve import Resolver


@pytest.fixture(scope="module")
def dn_ctx():
    return FrobeniusContext(dual_numbers(GF(2)))


@pytest.fixture(scope="module")
def a2_ctx():
    return FrobeniusContext(hereditary_a2(QQ))


@pytest.fixture(scope="module")
def t2_ctx():
    return FrobeniusContext(t2_dual_numbers(GF(2)))


# -- dimensions -----------------------------------------------------------

def test_projective_has_pd_zero(dn_ctx):
    P = projective_indecs(dn_ctx.algebra)[0]
    assert dn_ctx.proj_dim(P) == 0


def test_hereditary_pd_at_most_one(a2_ctx):
    for M in indecomposable_inventory(a2_ctx):
        pd = a2_ctx.proj_dim(M)
        assert pd is not None and pd <= 1


def test_simple_infinite_pd(dn_ctx):
    S = simples(dn_ctx.algebra)[0]
    assert dn_ctx.proj_dim(S, bound=6) is None


# -- gorenstein parameter ---------------------------------------------------

def test_selfinjective_parameter_zero():
    # the classical case: 0-Frobenius = usual Frobenius = self-injective
    assert gorenstein_parameter(dual_numbers(GF(2))) == 0
    assert gorenstein_parameter(trunc_poly(3, GF(3))) == 0


def test_hereditary_parameter_one(a2_ctx):
    assert a2_ctx.n == 1


def test_t2_parameter_one(t2_ctx):
    assert t2_ctx.n == 1


def test_t2_infinite_global_dimension(t2_ctx):
    pds = [t2_ctx.proj_dim(S, bound=8) for S in simples(t2_ctx.algebra)]
    assert None in pds


# -- relative projectivity ---------------------------------------------------

def test_projectives_are_n_projective(dn_ctx, a2_ctx, t2_ctx):
    for ctx in (dn_ctx, a2_ctx, t2_ctx):
        for P in projective_indecs(ctx.algebra):
            assert ctx.is_n_projective(P)


def test_simple_not_projective_dual_numbers(dn_ctx):
    S = simples(dn_ctx.algebra)[0]
    assert not dn_ctx.is_n_projective(S)


def test_hereditary_everything_1_projective(a2_ctx):
    for M in indecomposable_inventory(a2_ctx):
        assert a2_ctx.is_n_projective(M)


def test_nproj_equals_ninj(dn_ctx, a2_ctx, t2_ctx):
    # pd <= n iff injective dimension <= n, on every inventory module
    for ctx in (dn_ctx, a2_ctx, t2_ctx):
        for M in indecomposable_inventory(ctx):
            pd = ctx.proj_dim(M)
            idim = ctx.inj_dim(M)
            left = pd is not None and pd <= ctx.n
            right = idim is not None and idim <= ctx.n
            assert left == right, (ctx.algebra.name, M.name, pd, idim)


def test_depth_n_shortcut_matches_full_depth(dn_ctx, a2_ctx, t2_ctx):
    # is_n_projective resolves only to depth n; a fresh resolver at the
    # full bound is the oracle, so neither answer reads the other's cache
    for ctx in (dn_ctx, a2_ctx, t2_ctx):
        oracle = Resolver(ctx.algebra, bound=ctx.bound)
        for M in indecomposable_inventory(ctx):
            pd = proj_dim(oracle, M, ctx.bound)
            assert ctx.is_n_projective(M) == (pd is not None and pd <= ctx.n), \
                (ctx.algebra.name, M.name, pd)


def test_projectives_built_once(dn_ctx, t2_ctx):
    for A in (dn_ctx.algebra, t2_ctx.algebra):
        first, second = projective_indecs(A), projective_indecs(A)
        assert first is not second
        assert all(P is Q for P, Q in zip(first, second))
        assert len(first) == len(second) == A.n_idempotents
        first.clear()
        assert len(projective_indecs(A)) == A.n_idempotents
        assert A.regular_module() is A.regular_module()


# -- unit conflations ----------------------------------------------------------

def test_unit_down_projective_splits(dn_ctx):
    P = projective_indecs(dn_ctx.algebra)[0]
    u = dn_ctx.unit_down(P, 1)
    assert u.left.dim == 0    # minimal resolution of a projective


def test_unit_down_simple(dn_ctx):
    S = simples(dn_ctx.algebra)[0]
    u = dn_ctx.unit_down(S, 1)
    assert [m.dim for m in u.conflation.modules] == [1, 2, 1]
    assert is_isomorphic(u.left, S)


def test_unit_up_simple(dn_ctx):
    S = simples(dn_ctx.algebra)[0]
    u = dn_ctx.unit_up(S, 1)
    assert [m.dim for m in u.conflation.modules] == [1, 2, 1]
    assert is_isomorphic(u.right, S)


def test_unit_down_failure_names_module_and_step(t2_ctx, monkeypatch):
    # a fresh context, so no cached unit conflation answers for it
    ctx = FrobeniusContext(t2_ctx.algebra)
    S = simples(ctx.algebra)[0]
    monkeypatch.setattr(ctx, "is_n_projective", lambda M: False)
    P1 = ctx.resolver.resolution(S).term(1)
    with pytest.raises(CertificationError) as err:
        ctx.unit_down(S, 2)
    assert str(err.value) == (
        f"unit conflation of {S.name} in degree 2: projective middle term P1 "
        f"of dimension {P1.dim} fails relative projectivity")


def test_units_exist_through_degree(dn_ctx, t2_ctx):
    for ctx in (dn_ctx, t2_ctx):
        for M in indecomposable_inventory(ctx):
            for k in range(1, ctx.n + 3):
                u = ctx.unit_down(M, k)
                assert u.conflation.length == k
                v = ctx.unit_up(M, k)
                assert v.conflation.length == k


# -- Gorenstein projectives ------------------------------------------------------

def test_projectives_are_gproj(t2_ctx):
    for P in projective_indecs(t2_ctx.algebra):
        assert t2_ctx.is_gproj(P)


def test_selfinjective_everything_gproj(dn_ctx):
    for M in indecomposable_inventory(dn_ctx):
        assert dn_ctx.is_gproj(M)


def test_hereditary_gproj_are_projective(a2_ctx):
    for M in indecomposable_inventory(a2_ctx):
        assert a2_ctx.is_gproj(M) == (a2_ctx.proj_dim(M) == 0)


def test_t2_has_nonprojective_gproj(t2_ctx):
    inv = indecomposable_inventory(t2_ctx)
    extra = [M for M in inv if t2_ctx.is_gproj(M) and t2_ctx.proj_dim(M) != 0]
    assert extra, "expected non-projective Gorenstein projectives over T2"


def test_gproj_closure_under_extensions(t2_ctx):
    # first syzygies are Gorenstein projective over a parameter-1 algebra
    for S in simples(t2_ctx.algebra):
        Om = t2_ctx.resolver.syzygy(S, 1)
        assert t2_ctx.is_gproj(Om)


def test_search_returns_t2():
    A = gorenstein_one_search()
    assert A.dim == 6
    assert gorenstein_parameter(A) == 1


# every kill tuple on 1-3 vertices with lengths 2-6; this holds every
# Nakayama candidate of gorenstein_one_search
_ORACLE_KILLS = [kill for v in (1, 2, 3)
                 for kill in itertools.product(range(2, 7), repeat=v)]


def test_nakayama_oracle_matches_computation():
    rng = random.Random(17)
    sample = [tuple(rng.randrange(2, 7) for _ in range(rng.randrange(1, 4)))
              for _ in range(12)]
    cases = ([(GF(2), kill) for kill in _ORACLE_KILLS]
             + [(GF(65521), kill) for kill in sample]
             + [(GF(2), kill) for kill in ((4, 4, 5, 5), (2, 3, 4, 5),
                                           (2, 2, 3, 4), (3, 3, 3, 4))])
    # every finite parameter here is at most 5, so bound 8 decides them all
    for F, kill in cases:
        assert (nakayama_parameter(kill)
                == gorenstein_parameter(cyclic_nakayama(F, kill), 8)), (F, kill)


@pytest.mark.parametrize("kill", [(), (1,), (3, 0), (-2, 4)])
def test_nakayama_oracle_rejects_short_kill_lengths(kill):
    with pytest.raises(ValueError):
        nakayama_parameter(kill)


def test_search_skips_every_nakayama_candidate_unbuilt(monkeypatch):
    import stablext.fixtures as fixtures
    built, asked = [], []
    real_build, real_oracle = fixtures.cyclic_nakayama, fixtures.nakayama_parameter
    monkeypatch.setattr(fixtures, "cyclic_nakayama",
                        lambda *a: built.append(a) or real_build(*a))
    monkeypatch.setattr(fixtures, "nakayama_parameter",
                        lambda kill: asked.append(kill) or real_oracle(kill))
    A = gorenstein_one_search()
    assert built == []
    assert len(asked) == 39 and set(asked) <= set(_ORACLE_KILLS)
    assert A.regular_module().key == t2_dual_numbers(GF(2)).regular_module().key


def test_search_propagates_a_failed_candidate_build(monkeypatch):
    # a candidate the oracle puts at parameter 1 is built; failing to build
    # it is a program error, not a reason to skip it
    import stablext.fixtures as fixtures

    def broken(field, kill):
        raise RuntimeError(f"cannot build Nakayama{kill}")

    monkeypatch.setattr(fixtures, "nakayama_parameter", lambda kill: 1)
    monkeypatch.setattr(fixtures, "cyclic_nakayama", broken)
    with pytest.raises(RuntimeError, match=r"cannot build Nakayama\(2,\)"):
        gorenstein_one_search()


def test_search_over_gf3_and_below_bound_one():
    A = gorenstein_one_search(field=GF(3))
    assert A.field == GF(3)
    assert A.regular_module().key == t2_dual_numbers(GF(3)).regular_module().key
    # no parameter can be certified as 1 within bound 0
    with pytest.raises(CertificationError):
        gorenstein_one_search(bound=0)


# -- inventories -------------------------------------------------------------

def test_inventory_dual_numbers(dn_ctx):
    inv = indecomposable_inventory(dn_ctx)
    assert sorted(m.dim for m in inv) == [1, 2]


def test_inventory_trunc_poly():
    ctx = FrobeniusContext(trunc_poly(3, GF(3)))
    inv = indecomposable_inventory(ctx)
    assert sorted(m.dim for m in inv) == [1, 2, 3]


def test_inventory_t2(t2_ctx):
    inv = indecomposable_inventory(t2_ctx)
    assert len(inv) >= 5
    dims = sorted(m.dim for m in inv)
    assert dims[0] == 1


def test_indecomposable_summands_of_sum(dn_ctx):
    from stablext.algmod import direct_sum
    A = dn_ctx.algebra
    S = simples(A)[0]
    P = projective_indecs(A)[0]
    M, _, _ = direct_sum([S, P])
    pieces = indecomposable_summands(M)
    assert sorted(p.dim for p in pieces) == [1, 2]


def test_gproj_extension_closure_instances(t2_ctx):
    # extensions of G-projectives by G-projectives stay G-projective
    ctx = t2_ctx
    inv = [M for M in indecomposable_inventory(ctx) if ctx.is_gproj(M)]
    from stablext.resolve import sequence_from_element
    for A_ in inv:
        for C in inv:
            sp = ctx.resolver.ext(C, A_, 1)
            for elt in sp.basis_elements():
                B = elt.sequence().modules[1]
                assert ctx.is_gproj(B), (A_.name, C.name)


def test_gproj_projective_extension_instances(t2_ctx):
    # in Q -> M -> N with Q projective and N G-projective, M is G-projective
    ctx = t2_ctx
    gproj = [M for M in indecomposable_inventory(ctx) if ctx.is_gproj(M)]
    for Q in projective_indecs(ctx.algebra):
        for N in gproj:
            sp = ctx.resolver.ext(N, Q, 1)
            elts = sp.basis_elements() or []
            from stablext.resolve import ExtElement
            from stablext.algmod import zero_map
            res = ctx.resolver.resolution(N)
            split = ExtElement(ctx.resolver, N, Q, 1,
                               zero_map(res.term(1), Q))
            for elt in [split] + elts:
                M = elt.sequence().modules[1]
                assert ctx.is_gproj(M)


# -- extending a span by candidate columns ----------------------------------

def _rank_loop_pick(span, candidates):
    """Reference: one rank per candidate, keeping those that raise it."""
    chosen, current, r = [], span, rank(span)
    for j in range(candidates.cols):
        ext = current.hstack(candidates.take_columns([j]))
        if rank(ext) > r:
            chosen.append(j)
            current, r = ext, r + 1
    return chosen


def _basis_extension_algebras():
    yield from (dual_numbers(), trunc_poly(), hereditary_a2(),
                t2_dual_numbers(), t2_dual_numbers(QQ))
    for v in (1, 2, 3):
        for kills in itertools.product(range(2, 5), repeat=v):
            if v < 3 or len(set(kills)) > 1:
                yield cyclic_nakayama(GF(5), kills)


def test_generators_match_rank_loop():
    for A in _basis_extension_algebras():
        J = A.radical_span
        J2 = Matrix.zeros(A.field, A.dim, 0)
        for k in range(J.cols):
            J2 = J2.hstack(A.mult_by(J.take_columns([k]), "left") * J)
        picked = [J.take_columns([k]) for k in _rank_loop_pick(J2, J)]
        assert A.generators() == list(A.idempotents) + picked, A.name


def _embed_reference(ctx, X):
    A = ctx.algebra
    F = A.field
    reg = A.regular_module()
    hb = ctx.resolver.hom_basis(X, reg)
    if hb.dim == 0:
        return None
    J = A.radical_span
    cols = [hb.coords(ModuleMap(X, reg, A.mult_by(J.take_columns([t]), "right")
                                * h.matrix, _skip_checks=True)).a
            for t in range(J.cols) for h in hb.maps]
    span = Matrix(F, np.hstack(cols)) if cols else Matrix.zeros(F, hb.dim, 0)
    picked = _rank_loop_pick(span, Matrix.identity(F, hb.dim))
    if not picked:
        return None
    return Matrix(F, np.vstack([hb.maps[t].matrix.a for t in picked]))


@pytest.mark.parametrize("make", [
    lambda: t2_dual_numbers(GF(2)), lambda: t2_dual_numbers(QQ),
    lambda: trunc_poly(), lambda: cyclic_nakayama(GF(5), (3, 3, 4)),
])
def test_embed_into_projective_matches_rank_loop(make):
    ctx = FrobeniusContext(make())
    A = ctx.algebra
    mods = simples(A) + projective_indecs(A) + [
        f(S, k) for S in simples(A) for k in (1, 2)
        for f in (ctx.resolver.syzygy, ctx.resolver.cosyzygy)]
    for X in mods:
        u = ctx._embed_into_projective(X)
        ref = _embed_reference(ctx, X)
        assert (u is None and ref is None) or u.matrix == ref, X.name


# -- threads sharing an algebra ------------------------------------------------

def test_threads_building_contexts_share_one_opposite():
    # each thread builds its own context over one fresh, shared algebra; a
    # lazily built opposite raced here, and a resolver whose opposite sat
    # over a different copy of A^op recursed between the two in ``dual``
    import sys
    import threading
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            A = cyclic_nakayama(GF(3), (3, 3, 4))
            barrier = threading.Barrier(4)
            seen, errors = [], []

            def work():
                try:
                    barrier.wait()
                    ctx = FrobeniusContext(A)
                    for S in simples(A):
                        ctx.unit_up(S, ctx.n)
                    seen.append((ctx.algebra.opposite(), ctx.opposite().algebra,
                                 ctx.resolver.opposite().algebra))
                except Exception as e:
                    errors.append(e)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert len(seen) == 4
            assert all(op is A.opposite() for ops in seen for op in ops)
    finally:
        sys.setswitchinterval(old_interval)
