import random
from fractions import Fraction

import pytest

from stablext.exactlin import GF, QQ, Matrix, rank
from stablext.algmod import (
    Module, ModuleMap, direct_sum, factor_through, hom_space, identity_map, is_isomorphic,
    projective_indecs, quotient_module, random_hom, simples, splice, zero_map,
)
from stablext.fixtures import dual_numbers, hereditary_a2, trunc_poly
from stablext.frobenius import FrobeniusContext
from stablext.resolve import (
    ExtElement, Resolver, baer_sum, baer_sum_sequence, class_from_sequence,
    connecting_map, pull_back, pullback_sequence, push_out, pushout_sequence,
    sequence_from_element,
)

F2 = GF(2)


@pytest.fixture(scope="module")
def dn():
    A = dual_numbers(F2)
    return A, Resolver(A, bound=10)


@pytest.fixture(scope="module")
def tp3q():
    A = trunc_poly(3, QQ)
    return A, Resolver(A, bound=10)


def xquot(A, R, k):
    span = Matrix.zeros(A.field, A.dim, A.dim - k)
    for j in range(A.dim - k):
        span.a[k + j, j] = A.field.of(1)
    Q, _, _ = quotient_module(A.regular_module(), span, name=f"k[x]/(x^{k})")
    return Q


# -- resolutions ---------------------------------------------------------

def test_resolution_of_projective(dn):
    A, R = dn
    P = projective_indecs(A)[0]
    res = R.resolution(P)
    assert res.proj_dim(5) == 0
    assert res.term(1).dim == 0
    assert res.term(3).dim == 0


def test_resolution_of_simple_dual_numbers(dn):
    A, R = dn
    S = simples(A)[0]
    res = R.resolution(S)
    res.extend(4)
    for k in range(1, 5):
        assert res.term(k - 1).dim == 2
        assert is_isomorphic(res.syzygy(k), S)
    assert res.proj_dim(6) is None


def test_syzygies_trunc_poly(tp3q):
    A, R = tp3q
    S = xquot(A, R, 1)
    M2 = xquot(A, R, 2)
    assert is_isomorphic(R.syzygy(S, 1), M2)
    assert is_isomorphic(R.syzygy(M2, 1), S)


def test_coresolution_dual_numbers(dn):
    A, R = dn
    S = simples(A)[0]
    cores = R.coresolution(S)
    assert cores.term(1).dim == 2
    assert is_isomorphic(cores.cosyzygy(1), S)
    c = cores.truncation(1)
    c._validate()


# -- ext spaces -----------------------------------------------------------

def test_ext_vanishes_on_projectives(dn):
    A, R = dn
    P = projective_indecs(A)[0]
    S = simples(A)[0]
    for n in (1, 2, 3):
        assert R.ext(P, S, n).dim == 0


def test_ext1_dual_numbers(dn):
    A, R = dn
    S = simples(A)[0]
    assert R.ext(S, S, 1).dim == 1
    assert R.ext(S, S, 2).dim == 1


def test_ext1_trunc_poly(tp3q):
    A, R = tp3q
    S = xquot(A, R, 1)
    M2 = xquot(A, R, 2)
    assert R.ext(S, M2, 1).dim == 1
    assert R.ext(M2, S, 1).dim == 1
    # brute cross-check via the Hom complex dimensions:
    # Hom(P_k, M2) has dim 2 for all k, differentials alternate rank 1
    res = R.resolution(S)
    h0 = len(hom_space(res.term(0), M2))
    h1 = len(hom_space(res.term(1), M2))
    assert (h0, h1) == (2, 2)


def test_ext0_is_hom(dn):
    A, R = dn
    S = simples(A)[0]
    sp = R.ext(S, S, 0)
    assert sp.dim == 1


# -- sequence <-> cocycle round trip --------------------------------------

def ext_generator(R, M, N, n):
    sp = R.ext(M, N, n)
    assert sp.dim >= 1
    return sp.basis_elements()[0]


def test_zero_cocycle_gives_split_class(dn):
    A, R = dn
    S = simples(A)[0]
    res = R.resolution(S)
    z = ExtElement(R, S, S, 1, zero_map(res.term(1), S))
    seq = sequence_from_element(z)
    back = class_from_sequence(R, seq)
    assert back.is_coboundary()


def test_nonzero_class_round_trip_dual_numbers(dn):
    A, R = dn
    S = simples(A)[0]
    g = ext_generator(R, S, S, 1)
    seq = sequence_from_element(g)
    assert [m.dim for m in seq.modules] == [1, 2, 1]
    # the middle is the regular module: the non-split extension
    assert is_isomorphic(seq.modules[1], A.regular_module())
    back = class_from_sequence(R, seq)
    assert back.same_class(g)


def test_round_trip_random_trunc_poly(tp3q):
    A, R = tp3q
    rng = random.Random(11)
    S = xquot(A, R, 1)
    M2 = xquot(A, R, 2)
    for (M, N) in [(S, M2), (M2, S), (S, S)]:
        sp = R.ext(M, N, 1)
        for elt in sp.basis_elements():
            back = class_from_sequence(R, sequence_from_element(elt))
            assert back.same_class(elt)


def test_class_of_explicit_nonsplit_sequence(dn):
    A, R = dn
    S = simples(A)[0]
    res = R.resolution(S)
    c = res.truncation(1)   # S -> A -> S, the non-split conflation
    cls = class_from_sequence(R, c)
    assert not cls.is_coboundary()
    assert R.ext(S, S, 1).dim == 1


def test_split_sequence_is_coboundary(dn):
    A, R = dn
    S = simples(A)[0]
    SS, injs, projs = direct_sum([S, S])
    from stablext.algmod import Conflation
    c = Conflation([S, SS, S], [injs[0], projs[1]])
    cls = class_from_sequence(R, c)
    assert cls.is_coboundary()


# -- baer sum, pull back, push out ----------------------------------------

def test_pullback_identity(dn):
    A, R = dn
    S = simples(A)[0]
    g = ext_generator(R, S, S, 1)
    assert pull_back(g, identity_map(S)).same_class(g)
    assert push_out(identity_map(S), g).same_class(g)


def test_pushout_zero_is_coboundary(dn):
    A, R = dn
    S = simples(A)[0]
    g = ext_generator(R, S, S, 1)
    assert push_out(zero_map(S, S), g).is_coboundary()


def test_bimodule_law_random(tp3q):
    A, R = tp3q
    rng = random.Random(5)
    S = xquot(A, R, 1)
    M2 = xquot(A, R, 2)
    for _ in range(8):
        gamma = ext_generator(R, M2, S, 1)
        h = random_hom(rng, S, M2)
        l = random_hom(rng, S, M2)
        lhs = push_out(l, pull_back(gamma, h))
        rhs = pull_back(push_out(l, gamma), h)
        assert lhs.same_class(rhs)


def test_baer_sum_group_axioms(dn):
    A, R = dn
    S = simples(A)[0]
    g = ext_generator(R, S, S, 1)
    z = baer_sum(g, (-g))
    assert z.is_coboundary()
    assert baer_sum(g, g).is_coboundary()  # char 2: g + g = 0
    sp = R.ext(S, S, 1)
    assert sp.coords(baer_sum(g, g)).is_zero()


# -- sequence-level oracle agreement ---------------------------------------

def test_sequence_level_pullback_agrees(tp3q):
    A, R = tp3q
    rng = random.Random(2)
    S = xquot(A, R, 1)
    M2 = xquot(A, R, 2)
    gamma = ext_generator(R, M2, S, 1)
    for _ in range(5):
        h = random_hom(rng, S, M2)
        lhs = pull_back(gamma, h)
        rhs = class_from_sequence(R, pullback_sequence(gamma.sequence(), h))
        assert lhs.same_class(rhs)


def test_sequence_level_pushout_agrees(tp3q):
    A, R = tp3q
    rng = random.Random(4)
    S = xquot(A, R, 1)
    M2 = xquot(A, R, 2)
    gamma = ext_generator(R, S, S, 1)
    for _ in range(5):
        l = random_hom(rng, S, M2)
        lhs = push_out(l, gamma)
        rhs = class_from_sequence(R, pushout_sequence(l, gamma.sequence()))
        assert lhs.same_class(rhs)


def test_sequence_level_baer_sum_agrees(dn):
    A, R = dn
    S = simples(A)[0]
    g = ext_generator(R, S, S, 1)
    seq_sum = baer_sum_sequence(g.sequence(), g.sequence())
    lhs = class_from_sequence(R, seq_sum)
    rhs = baer_sum(g, g)
    assert lhs.same_class(rhs)


def test_splice_matches_composed_cocycle(dn):
    A, R = dn
    S = simples(A)[0]
    g = ext_generator(R, S, S, 1)
    spliced = splice(g.sequence(), g.sequence())
    cls = class_from_sequence(R, spliced)
    assert cls.n == 2
    # over F2[x]/(x^2) the Yoneda square of the generator generates Ext^2
    assert not cls.is_coboundary()


# -- connecting maps --------------------------------------------------------

def test_connecting_split_is_zero(dn):
    A, R = dn
    S = simples(A)[0]
    SS, injs, projs = direct_sum([S, S])
    from stablext.algmod import Conflation
    c = Conflation([S, SS, S], [injs[0], projs[1]])
    cm = connecting_map(R, c, S, 1, covariant=True)
    assert cm.matrix.is_zero()


def test_connecting_cover_sequence_surjective(dn):
    A, R = dn
    S = simples(A)[0]
    c = R.resolution(S).truncation(1)   # syz -> P -> S with P projective
    for n in (1, 2):
        cm = connecting_map(R, c, S, n, covariant=True)
        assert cm.rank() == cm.target.dim
        assert cm.is_bijective()


def test_connecting_matches_splice_oracle(dn):
    A, R = dn
    S = simples(A)[0]
    c = R.resolution(S).truncation(1)
    for variance in (True, False):
        fast = connecting_map(R, c, S, 1, covariant=variance)
        slow = connecting_map(R, c, S, 1, covariant=variance, via_sequences=True)
        assert fast.matrix == slow.matrix or fast.matrix == -slow.matrix


def test_five_term_exactness(tp3q):
    A, R = tp3q
    S = xquot(A, R, 1)
    M2 = xquot(A, R, 2)
    res = R.resolution(S)
    c = res.truncation(1)    # M2' -> P -> S with P projective
    X = M2
    # Ext^1(X, right) -> Ext^2(X, left) is surjective since Ext^2(X, P) = 0
    cm = connecting_map(R, c, X, 1, covariant=True)
    assert cm.rank() == cm.target.dim


def test_dimension_shift(tp3q):
    A, R = tp3q
    S = xquot(A, R, 1)
    M2 = xquot(A, R, 2)
    for (M, N) in [(S, M2), (M2, S), (S, S)]:
        for n in (1, 2):
            up = R.ext(M, N, n + 1).dim
            left = R.ext(R.syzygy(M, 1), N, n).dim
            right = R.ext(M, R.cosyzygy(N, 1), n).dim
            assert up == left == right


def test_baer_sum_abelian_group(tp3q):
    A, R = tp3q
    S = xquot(A, R, 1)
    M2 = xquot(A, R, 2)
    sp = R.ext(S, M2, 1)
    elts = sp.basis_elements()
    for a in elts:
        for b in elts:
            assert baer_sum(a, b).same_class(baer_sum(b, a))
            for c in elts:
                lhs = baer_sum(baer_sum(a, b), c)
                rhs = baer_sum(a, baer_sum(b, c))
                assert lhs.same_class(rhs)
        assert baer_sum(a, -a).is_coboundary()


def test_named_resolution_entry_points(tp3q):
    from stablext.resolve import min_inj_coresolution, min_proj_resolution
    A, R = tp3q
    S = xquot(A, R, 1)
    res = min_proj_resolution(R, S, 3)
    assert res.term(3).dim > 0
    cores = min_inj_coresolution(R, S, 3)
    assert cores.term(3).dim > 0


def test_concurrent_reads_share_cache():
    # exclusive insert, concurrent read: hammer one resolver from several
    # threads and check every thread saw the same cached objects
    import threading
    from stablext.fixtures import trunc_poly
    A = trunc_poly(3, GF(2))
    R = Resolver(A, bound=8)
    S = simples(A)[0]
    seen = []
    errors = []

    def work():
        try:
            for n in (1, 2, 3):
                seen.append((n, id(R.ext(S, S, n))))
        except Exception as e:  # noqa: BLE001
            errors.append(e)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    by_degree = {}
    for n, ident in seen:
        by_degree.setdefault(n, set()).add(ident)
    assert all(len(v) == 1 for v in by_degree.values())


def test_concurrent_lifts_extend_once():
    # in-place growth of a cached lift chain and of the resolutions under
    # it must be serialized: every thread asks for the same five maps
    import sys
    import threading
    from stablext.fixtures import cyclic_nakayama
    A = cyclic_nakayama(GF(2), (3, 3, 4))
    R = Resolver(A, bound=8)
    f = identity_map(simples(A)[0])
    chains = []
    errors = []

    def work():
        try:
            chains.append(R.lift(f, 4))
        except Exception as e:  # noqa: BLE001
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(chains) == 8
    chain = chains[0]
    assert all(c is chain for c in chains)
    assert len(chain) == 5
    res = R.resolution(f.source)
    for k, fk in enumerate(chain):
        assert fk.source is res.term(k) and fk.target is res.term(k)


def test_memo_builds_once_and_caches_falsy_values():
    import threading
    from stablext.resolve import Memo
    memo = Memo(threading.RLock())
    a, b = object(), object()
    built = []

    def build(value):
        def run():
            built.append(value)
            return value
        return run

    assert memo("flag", (a,), build(False)) is False
    assert memo("flag", (a,), build(True)) is False
    assert memo("flag", (a,), build(0), 2) == 0
    assert memo("flag", (b,), build(None)) is None
    assert memo("flag", (b,), build(1)) is None
    assert memo("other", (a,), build(7)) == 7
    assert built == [False, 0, None, 7]


@pytest.mark.parametrize("failing_call,degree", [(1, 0), (2, 1)])
def test_comparison_lift_error_names_degree_and_module(monkeypatch,
                                                       failing_call, degree):
    A = dual_numbers(F2)
    R = Resolver(A)
    S = simples(A)[0]
    solve = R.solve_hom
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(args)
        return None if len(calls) == failing_call else solve(*args, **kwargs)

    monkeypatch.setattr(R, "solve_hom", fail_once)
    with pytest.raises(RuntimeError,
                       match=rf"degree {degree} \(from P_{degree} of S1\)"):
        R.lift(identity_map(S), 2)


def test_solve_hom_both_sides(dn):
    # post . phi = rhs inside Hom(P, P), and phi . q = rhs through the
    # surjection q: P ->> S by factor_through, each against a known solution
    A, R = dn
    P = projective_indecs(A)[0]
    S = simples(A)[0]
    q = R.resolution(S).cover(0)
    rng = random.Random(3)
    for _ in range(5):
        phi = random_hom(rng, P, P)
        g = random_hom(rng, P, P)
        x = R.solve_hom(P, P, g * phi, post=g)
        assert x is not None and g * x == g * phi
        psi = random_hom(rng, S, P)
        assert factor_through((psi * q, q)) == psi
    S = simples(A)[0]
    one = identity_map(S)
    assert R.solve_hom(S, P, one, post=zero_map(P, S)) is None


# -- structure keys: hom matrices and relative projectivity -------------

def _copy_module(M, name="copy"):
    # an equal module from freshly allocated entries (new Fractions over Q)
    F = M.algebra.field
    action = [Matrix(F, F.array([[str(x) for x in row] for row in m.a.tolist()])
                     .reshape(M.dim, M.dim)) for m in M.action]
    return Module(M.algebra, M.dim, action, name=name)


def _entries(memo, kind):
    return sum(1 for key in memo._store if key[0] == kind)


def _count_hom_space(monkeypatch):
    import stablext.resolve as resolve_mod
    calls = []

    def counted(M, N):
        calls.append((M, N))
        return hom_space(M, N)

    monkeypatch.setattr(resolve_mod, "hom_space", counted)
    return calls


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_equal_modules_share_one_hom_mats_entry(field, monkeypatch):
    A = trunc_poly(3, field)
    R = Resolver(A)
    built = _count_hom_space(monkeypatch)
    M = xquot(A, R, 2)
    N = A.regular_module()
    M2, N2 = _copy_module(M), _copy_module(N)
    assert M2 is not M and M2 == M and M2.key == M.key
    hb = R.hom_basis(M, N)
    hb2 = R.hom_basis(M2, N2)
    assert hb2 is not hb and hb.dim == hb2.dim == 2
    assert _entries(R._memo, "hom") == 2
    assert _entries(R._memo, "hom_mats") == 1 and len(built) == 1
    assert hb2.flat is hb.flat
    for h, h2 in zip(hb.maps, hb2.maps):
        assert h.source is M and h.target is N
        assert h2.source is M2 and h2.target is N2
        assert h2.matrix is h.matrix


def test_q_hom_mats_hit_after_gc(monkeypatch):
    # the key holds Fraction values, not the addresses of freed objects
    import gc
    A = trunc_poly(3, QQ)
    R = Resolver(A)
    built = _count_hom_space(monkeypatch)
    S = simples(A)[0]
    for _ in range(3):
        M = _copy_module(xquot(A, R, 2))
        hb = R.hom_basis(M, S)
        assert hb.dim == 1 and hb.maps[0].source is M
        del M, hb
        gc.collect()
    assert _entries(R._memo, "hom_mats") == 1 and len(built) == 1
    # equal dim, other action, built after the collection: its own entry
    SS, _, _ = direct_sum([simples(A)[0], simples(A)[0]])
    assert SS.dim == 2 and R.hom_basis(SS, S).dim == 2
    assert _entries(R._memo, "hom_mats") == 2 and len(built) == 2


def test_same_dim_other_action_gets_own_hom_mats():
    A = dual_numbers(F2)
    R = Resolver(A)
    S = simples(A)[0]
    SS, _, _ = direct_sum([S, simples(A)[0]])
    P = A.regular_module()
    assert SS.dim == P.dim == 2 and SS.key != P.key
    assert R.hom_basis(P, P).dim == 2
    assert R.hom_basis(SS, SS).dim == 4
    assert _entries(R._memo, "hom_mats") == 2


def test_shared_hom_matrices_are_read_only(dn):
    A, R = dn
    P = A.regular_module()
    hb = R.hom_basis(P, P)
    with pytest.raises(ValueError, match="read-only"):
        hb.maps[0].matrix.a[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        hb.flat.a[0, 0] = 1
    # arithmetic on them still gives fresh, writable matrices
    m = hb.maps[0].matrix + hb.maps[1].matrix
    m.a[0, 0] = 1


def test_differentials_are_computed_once(dn):
    A, R = dn
    S = simples(A)[0]
    res = R.resolution(S)
    for k in range(1, 4):
        d = res.diff(k)
        assert d is res.diff(k)
        assert d == res.incl(k - 1) * res.cover(k)
        assert d.source is res.term(k) and d.target is res.term(k - 1)


def _count_proj_dim(ctx, monkeypatch):
    calls = []
    proj_dim = ctx.proj_dim

    def counted(M, bound=None):
        calls.append(M)
        return proj_dim(M, bound)

    monkeypatch.setattr(ctx, "proj_dim", counted)
    return calls


@pytest.mark.parametrize("field", [GF(2), QQ])
def test_equal_modules_share_one_nproj_entry(field, monkeypatch):
    import gc
    ctx = FrobeniusContext(trunc_poly(3, field))
    built = _count_proj_dim(ctx, monkeypatch)
    P = ctx.algebra.regular_module()
    copies = [_copy_module(P, f"P{i}") for i in range(3)]
    assert all(ctx.is_n_projective(X) for X in copies)
    del copies
    gc.collect()
    assert ctx.is_n_projective(_copy_module(P))
    assert _entries(ctx.memo, "nproj") == 1 and len(built) == 1
    assert ctx.is_gproj(_copy_module(P)) and ctx.is_gproj(_copy_module(P))
    assert _entries(ctx.memo, "gproj") == 1
    assert not any(ctx.is_n_projective(S) for S in simples(ctx.algebra))
    assert _entries(ctx.memo, "nproj") == 2 and len(built) == 2


def _scaled(M, s):
    # M in the basis (1, s, s^2, ...): isomorphic, other entries
    import numpy as np
    F = M.algebra.field
    D = Matrix(F, np.diag([F.of(s) ** k for k in range(M.dim)]).astype(object))
    Dinv = Matrix(F, np.diag([1 / F.of(s) ** k for k in range(M.dim)]).astype(object))
    return Module(M.algebra, M.dim, [Dinv * m * D for m in M.action])


def test_q_key_is_the_values_int_or_fraction():
    import numpy as np
    A = trunc_poly(3, QQ)
    P = A.regular_module()
    # the same values held as Python ints instead of Fractions
    ints = Module(A, P.dim, [Matrix(QQ, np.array([[int(x) for x in row]
                                                  for row in m.a.tolist()],
                                                 dtype=object))
                             for m in P.action])
    assert isinstance(ints.action[1].a[1, 0], int)
    assert ints.key == P.key and ints == P
    R = Resolver(A)
    assert R.resolution(ints) is R.resolution(P)
    assert _entries(R._memo, "resolution") == 1
    # other values, also ones whose digits run together, other keys
    scaled = [_scaled(P, s) for s in (2, Fraction(1, 2), Fraction(3, 2),
                                      Fraction(1, 12), 12)]
    keys = {X.key for X in scaled} | {P.key}
    assert len(keys) == 6
    assert all(is_isomorphic(X, P) and X != P for X in scaled)
    assert len({id(R.resolution(X)) for X in scaled + [P]}) == 6


def test_equal_entries_over_other_algebras_never_share_an_entry():
    import threading
    from stablext.resolve import Memo
    A1, A2 = dual_numbers(F2), dual_numbers(F2)
    S1, S2 = simples(A1)[0], simples(A2)[0]
    assert S1.key == S2.key and S1 != S2
    memo = Memo(threading.RLock())
    assert memo("k", (S1,), lambda: 1) == 1
    assert memo("k", (S2,), lambda: 2) == 2
    assert memo("k", (identity_map(S1),), lambda: 3) == 3
    assert memo("k", (identity_map(S2),), lambda: 4) == 4
    assert memo("k", (identity_map(Module(A2, 1, S2.action)),), lambda: 5) == 4
    assert len(memo._store) == 4


def test_module_action_is_read_only_and_key_computed_once(dn):
    A, _ = dn
    P = A.regular_module()
    assert isinstance(P.action, tuple)
    with pytest.raises(ValueError, match="read-only"):
        P.action[0].a[0, 0] = 1
    assert P.key is P.key
    # arithmetic on the action still gives fresh, writable matrices
    m = P.action[0] * P.action[1]
    m.a[0, 0] = 1


@pytest.mark.parametrize("field", [GF(2), QQ], ids=["GF2", "QQ"])
def test_equal_modules_hash_alike(field):
    A = dual_numbers(field)
    S = simples(A)[0]
    C = Module(A, S.dim, [Matrix(field, m.copy_array()) for m in S.action])
    assert C is not S and C == S and hash(C) == hash(S)
    assert C in {S} and len({S, C}) == 1
    # the same entries over another algebra are another module
    B = dual_numbers(field)
    D = Module(B, S.dim, [Matrix(field, m.copy_array()) for m in S.action])
    assert D != S and len({S, D}) == 2


def test_same_dim_other_action_gets_own_nproj_entry():
    # dual numbers: A and S + S are both 2-dimensional, only A is projective
    ctx = FrobeniusContext(dual_numbers(GF(2)))
    A = ctx.algebra
    SS, _, _ = direct_sum([simples(A)[0], simples(A)[0]])
    P = A.regular_module()
    assert SS.dim == P.dim == 2 and SS.key != P.key
    assert ctx.is_n_projective(P) and not ctx.is_n_projective(SS)
    assert ctx.is_gproj(P) and ctx.is_gproj(SS)
    assert _entries(ctx.memo, "nproj") == 2
    assert _entries(ctx.memo, "gproj") == 2


def test_repeated_criterion_7_adds_no_structure_entries():
    # the memo stops growing once every structure is seen; an identity key
    # adds entries for every fresh cokernel and random map (over four runs
    # that took the memo from 7,032 to 20,085 entries, "hom" from 3,220 to
    # 8,880 and "lift" from 2,512 to 9,868)
    from collections import Counter
    from stablext import suites
    fx = suites._Fixtures()
    ctxs = [ctx for _, ctx, _ in fx]

    def counts():
        memos = {id(m): m for c in ctxs
                 for m in (c.memo, c.resolver._memo,
                           c.resolver._op and c.resolver._op._memo,
                           c._opposite and c._opposite.memo) if m}
        return Counter(key[0] for m in memos.values() for key in m._store)

    seen = []
    for r in range(4):
        passed, detail = suites.criterion_7(fx, random.Random(7 + r))
        assert passed, detail
        seen.append(counts())
    first, _, third, last = seen
    assert 0 < first["nproj"] and third["nproj"] <= first["nproj"] + 25
    assert 0 < first["hom_mats"] == third["hom_mats"]
    assert sum(last.values()) <= sum(first.values()) + 100
    for kind in ("hom", "lift", "ext", "resolution"):
        assert 0 < first[kind] and last[kind] <= first[kind] + 25, kind
    # the per-morphism answers grow only with the maps a new seed draws
    # that no earlier run drew
    answers = ("unit_coset", "quasi_inv", "ruf", "beta_prime")
    assert all(first[kind] > 0 for kind in answers)
    assert sum(last[k] for k in answers) <= sum(first[k] for k in answers) + 50
