import random
import re

import numpy as np
import pytest

import stablext.algmod as algmod
from stablext.exactlin import GF, QQ, Matrix, kernel_basis, rank, solve
from stablext.algmod import (
    AlgebraError, ConflationError, Conflation, ModuleError, QuiverPresentation,
    algebra_from_quiver, check_conflation, cokernel_module, direct_sum,
    dual_module, factor_through, hom_dim, hom_space, identity_map, image_module,
    injective_indecs, injective_envelope, is_isomorphic, kernel_module,
    lift_through, projective_cover, projective_indecs, pullback,
    pushout, quotient_module, rad, random_hom, simples, socle, splice,
    submodule, top, zero_map, zero_module, ModuleMap, Module,
    column_space_basis,
)
from stablext.fixtures import (
    dual_numbers, hereditary_a2, indecomposable_inventory, t2_dual_numbers,
    trunc_poly,
)
from stablext.frobenius import FrobeniusContext

F2 = GF(2)
F3 = GF(3)


@pytest.fixture(scope="module")
def dn():
    return dual_numbers(F2)


@pytest.fixture(scope="module")
def tp3():
    return trunc_poly(3, F3)


@pytest.fixture(scope="module")
def a2():
    return hereditary_a2(QQ)


def regular(A):
    return A.regular_module()


def xpower_quotient(A, k):
    """k[x]/(x^k) as a module over k[x]/(x^m), m = A.dim, k <= m."""
    span = Matrix.zeros(A.field, A.dim, A.dim - k)
    for j in range(A.dim - k):
        span.a[k + j, j] = A.field.of(1)
    Q, _, _ = quotient_module(regular(A), span, name=f"k[x]/(x^{k})")
    return Q


# -- quiver algebra construction ---------------------------------------

def test_dual_numbers_dim(dn):
    assert dn.dim == 2
    assert dn.labels == ["e_v", "x"]
    assert dn.n_idempotents == 1


def test_hereditary_dim(a2):
    assert a2.dim == 3
    assert a2.n_idempotents == 2


def test_trunc_poly_dim(tp3):
    assert tp3.dim == 3
    assert rank(tp3.radical_span) == 2


def test_infinite_dimensional_rejected():
    q = QuiverPresentation(QQ, ["v"], [("x", "v", "v")])
    with pytest.raises(AlgebraError):
        algebra_from_quiver(q, length_bound=6)


def test_non_admissible_relation_rejected():
    with pytest.raises(AlgebraError):
        QuiverPresentation(QQ, ["v"], [("x", "v", "v")], [[(1, ("x",))]])


def test_t2_table_loads():
    A = t2_dual_numbers(F2)
    assert A.dim == 6
    assert rank(A.radical_span) == 4


def test_t2_quiver_elimination_matches_table():
    # commutation relation: x then a  equals  a then x'
    q = QuiverPresentation(
        F2, ["1", "2"],
        [("x1", "1", "1"), ("x2", "2", "2"), ("a", "1", "2")],
        [[(1, ("x1", "x1"))], [(1, ("x2", "x2"))],
         [(1, ("x1", "a")), (-1, ("a", "x2"))]])
    A = algebra_from_quiver(q, name="T2-by-quiver")
    assert A.dim == 6
    assert rank(A.radical_span) == 4
    B = t2_dual_numbers(F2)
    assert sorted(P.dim for P in projective_indecs(A)) == \
        sorted(P.dim for P in projective_indecs(B))


# -- hom spaces ---------------------------------------------------------

def test_hom_contains_identity(dn):
    A = regular(dn)
    basis = hom_space(A, A)
    # the identity is in the span: solve for coefficients
    from stablext.exactlin import solve
    import numpy as np
    cols = Matrix(dn.field, np.hstack([h.matrix.flatten().a for h in basis]))
    target = identity_map(A).matrix.flatten()
    assert solve(cols, target) is not None


def test_hom_simple_dual_numbers(dn):
    S = simples(dn)[0]
    assert hom_dim(S, S) == 1


def test_hom_trunc_poly(tp3):
    S = xpower_quotient(tp3, 1)
    M2 = xpower_quotient(tp3, 2)
    assert hom_dim(S, M2) == 1
    assert hom_dim(M2, S) == 1
    assert hom_dim(M2, M2) == 2


# -- kernels, images, cokernels ----------------------------------------

def test_kernel_of_identity(dn):
    A = regular(dn)
    K, incl = kernel_module(identity_map(A))
    assert K.dim == 0


def test_cokernel_of_zero(dn):
    A = regular(dn)
    S = simples(dn)[0]
    C, proj = cokernel_module(zero_map(S, A))
    assert C.dim == A.dim
    assert proj.is_surjective() and proj.is_injective()


def test_mult_by_x_kernel_cokernel(dn):
    A = regular(dn)
    x = Matrix.column(dn.field, [0, 1])
    f = ModuleMap(A, A, dn.mult_by(x, "left"))
    S = simples(dn)[0]
    K, _ = kernel_module(f)
    C, _ = cokernel_module(f)
    assert K.dim == 1 and C.dim == 1
    assert is_isomorphic(K, S) and is_isomorphic(C, S)


def test_image_exactness(tp3):
    A = regular(tp3)
    x = Matrix.column(tp3.field, [0, 1, 0])
    f = ModuleMap(A, A, tp3.mult_by(x, "left"))
    I, incl, corestrict = image_module(f)
    assert I.dim == 2
    assert (incl * corestrict).matrix == f.matrix
    K, kincl = kernel_module(f)
    assert K.dim == 1


# -- projectives, injectives, covers, envelopes -------------------------

def test_dual_numbers_selfinjective(dn):
    Ps = projective_indecs(dn)
    Is = injective_indecs(dn)
    assert len(Ps) == len(Is) == 1
    assert Ps[0].dim == 2 and Is[0].dim == 2
    assert is_isomorphic(Ps[0], Is[0])


def test_hereditary_projectives(a2):
    P1, P2 = projective_indecs(a2)
    assert P1.dim == 2
    assert P2.dim == 1
    assert is_isomorphic(P2, simples(a2)[1])


def test_cover_of_projective_is_iso(a2):
    for P in projective_indecs(a2):
        C, f = projective_cover(P)
        assert C.dim == P.dim
        assert f.is_injective() and f.is_surjective()


def test_cover_of_simple(dn):
    S = simples(dn)[0]
    P, f = projective_cover(S)
    assert P.dim == 2
    assert f.is_surjective()
    K, _ = kernel_module(f)
    assert is_isomorphic(K, S)


def test_envelope_of_simple(dn):
    S = simples(dn)[0]
    I, f = injective_envelope(S)
    assert I.dim == 2
    assert f.is_injective()


def test_projectivity_dimension_count(dn, tp3):
    # dim Hom(P_i, M) = dim e_i M for random M
    rng = random.Random(7)
    for A in (dn, tp3):
        Ps = projective_indecs(A)
        reg = regular(A)
        M, _, _ = direct_sum([reg, simples(A)[0]])
        for i, P in enumerate(Ps):
            eM = rank(M.act(A.idempotents[i]))
            assert hom_dim(P, M) == eM


def test_injective_duality_dims(a2):
    Is = injective_indecs(a2)
    Ps_op = projective_indecs(a2.opposite())
    for I, P in zip(Is, Ps_op):
        assert I.dim == P.dim


# -- top / rad / socle ---------------------------------------------------

def test_top_rad_socle(tp3):
    A = regular(tp3)
    T, _, _ = top(A)
    R, _ = rad(A)
    S, _ = socle(A)
    assert T.dim == 1 and R.dim == 2 and S.dim == 1


# -- pullback / pushout --------------------------------------------------

def test_pullback_of_identities(dn):
    Z = regular(dn)
    idZ = identity_map(Z)
    W, pX, pY = pullback(idZ, idZ)
    assert W.dim == Z.dim
    assert is_isomorphic(W, Z)
    assert pX.matrix == pY.matrix


def test_pushout_along_zero(dn):
    S = simples(dn)[0]
    A = regular(dn)
    z = zero_module(dn)
    f = zero_map(z, S)
    g = zero_map(z, A)
    W, iX, iY = pushout(f, g)
    assert W.dim == S.dim + A.dim


def test_pullback_dim_dual_numbers(dn):
    A = regular(dn)
    S = simples(dn)[0]
    _, q, _ = top(A)   # A -> S is the canonical deflation
    f = ModuleMap(A, S, q.matrix)
    W, _, _ = pullback(f, f)
    assert W.dim == 3


def test_pullback_universal_property(dn):
    rng = random.Random(3)
    A = regular(dn)
    S = simples(dn)[0]
    _, q, _ = top(A)
    f = ModuleMap(A, S, q.matrix)
    W, pX, pY = pullback(f, f)
    # any competing cone mediates uniquely
    for _ in range(5):
        T = A
        cX = random_hom(rng, T, A)
        cY_candidates = hom_space(T, A)
        # build a cone: need f cX = f cY; take cY with matching composite
        for h in cY_candidates:
            if (f * cX).matrix == (f * h).matrix:
                m = lift_through((cX, pX), (h, pY))
                assert (pX * m).matrix == cX.matrix
                assert (pY * m).matrix == h.matrix


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
def test_factor_and_lift_through_recover_the_map(field):
    # a pushout's two maps into W are jointly surjective and a pullback's
    # two maps out of W jointly injective, so a map out of (into) W is
    # recovered from its composites with them; so it is for one surjection
    # or one injection
    rng = random.Random(5)
    A = t2_dual_numbers(field)
    R = A.regular_module()
    S = simples(A)[0]
    P, q = projective_cover(S)
    K, incl = kernel_module(q)
    for _ in range(3):
        f, g = random_hom(rng, R, R), random_hom(rng, R, R)
        W, iX, iY = pushout(f, g)
        x = random_hom(rng, W, R)
        assert factor_through((x * iX, iX), (x * iY, iY)) == x
        W, pX, pY = pullback(f, g)
        y = random_hom(rng, R, W)
        assert lift_through((pX * y, pX), (pY * y, pY)) == y
        x = random_hom(rng, S, R)
        assert factor_through((x * q, q)) == x
        y = random_hom(rng, R, K)
        assert lift_through((incl * y, incl)) == y


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
def test_factor_and_lift_through_name_both_modules(field):
    A = t2_dual_numbers(field)
    S = simples(A)[0]
    P, q = projective_cover(S)
    K, incl = kernel_module(q, name="K")
    assert P.dim > 1 and K.dim > 0
    # the identity of P kills nothing, so it factors through no surjection
    # with a kernel, and lifts through no injection that misses some of P
    with pytest.raises(RuntimeError,
                       match=rf"no map S1 \(dim 1\) -> {re.escape(P.name)} "
                             rf"\(dim {P.dim}\)"):
        factor_through((identity_map(P), q))
    with pytest.raises(RuntimeError,
                       match=rf"no map {re.escape(P.name)} \(dim {P.dim}\) "
                             rf"-> K \(dim {K.dim}\)"):
        lift_through((identity_map(P), incl))


# -- conflations ---------------------------------------------------------

def unit_conflation_dual_numbers(dn):
    A = regular(dn)
    S = simples(dn)[0]
    P, f = projective_cover(S)
    K, incl = kernel_module(f)
    return check_conflation([K, P, S], [incl, f])


def test_conflation_accepts_exact(dn):
    c = unit_conflation_dual_numbers(dn)
    assert c.length == 1
    assert c.left.dim == 1 and c.right.dim == 1


def test_conflation_rejects_nonexact(dn):
    A = regular(dn)
    S = simples(dn)[0]
    with pytest.raises(ConflationError):
        check_conflation([S, A, S], [zero_map(S, A), zero_map(A, S)])


def test_splice_dual_numbers(dn):
    c = unit_conflation_dual_numbers(dn)
    S = simples(dn)[0]
    # ends are both S in the same coordinates
    assert c.left == c.right
    spliced = splice(c, c)
    assert spliced.length == 2
    assert [m.dim for m in spliced.modules] == [1, 2, 2, 1]


def test_splice_associative(dn):
    c = unit_conflation_dual_numbers(dn)
    left = splice(splice(c, c), c)
    right = splice(c, splice(c, c))
    assert [m.dim for m in left.modules] == [m.dim for m in right.modules]
    for f, g in zip(left.maps, right.maps):
        assert f.matrix == g.matrix


def test_dual_conflation(dn):
    c = unit_conflation_dual_numbers(dn)
    d = dual_module(c.left)
    from stablext.resolve import Resolver
    dc = Resolver(dn).dual_conflation(c)
    dc._validate()
    assert dc.left.algebra is dn.opposite()


# -- module validation ---------------------------------------------------

def test_module_validation_rejects_bad_action(dn):
    F = dn.field
    bad = [Matrix.identity(F, 1), Matrix.identity(F, 1)]  # x acting as 1
    with pytest.raises(ModuleError):
        Module(dn, 1, bad, name="bad")


def test_map_validation_rejects_non_intertwiner(dn):
    A = regular(dn)
    S = simples(dn)[0]
    _, q, _ = top(A)
    bad = Matrix.from_rows(dn.field, [[1, 1]])
    ok = q.matrix
    assert ModuleMap(A, S, ok)
    with pytest.raises(ModuleError):
        ModuleMap(A, S, bad)


def test_map_sum_needs_equal_ends():
    # on t2-dual-numbers over GF(2) the simples are both 1-dimensional, so
    # 1_S1 + 1_S2 used to be the zero map S1 -> S1
    A = t2_dual_numbers(F2)
    S1, S2 = simples(A)
    for op in (lambda f, g: f + g, lambda f, g: f - g):
        with pytest.raises(ModuleError, match="not parallel"):
            op(identity_map(S1), identity_map(S2))
        with pytest.raises(ModuleError, match="not parallel"):
            op(zero_map(S1, S1), zero_map(S1, S2))
        # equal ends that are distinct objects still add
        copy = Module(A, S1.dim, S1.action, name="S1'")
        assert op(identity_map(S1), identity_map(copy)).is_zero()


def test_mediating_map_unique(dn):
    # uniqueness: the kernel of the stacked projections is zero
    from stablext.exactlin import kernel_basis
    import numpy as np
    A = regular(dn)
    S = simples(dn)[0]
    _, q, _ = top(A)
    f = ModuleMap(A, S, q.matrix)
    W, pX, pY = pullback(f, f)
    stacked = Matrix(dn.field, np.vstack([pX.matrix.a, pY.matrix.a]))
    assert kernel_basis(stacked).cols == 0


# -- projective cover against the per-generator reference -----------------

def _reference_projective_cover(M):
    """Projective cover lifting one top generator at a time, with rad(P)
    built as a submodule: the straightforward construction, kept as the
    oracle for the batched one."""
    A, F = M.algebra, M.algebra.field
    T, q, _ = top(M)
    projs = projective_indecs(A)
    summands, blocks = [], []
    for i, e in enumerate(A.idempotents):
        Vi = column_space_basis(T.act(e))
        for t in range(Vi.cols):
            v = solve(q.matrix, Matrix(F, Vi.a[:, [t]]))
            assert v is not None
            w = M.act(e) * v
            incl = column_space_basis(A.mult_by(e, "right"))
            cols = Matrix.zeros(F, M.dim, projs[i].dim)
            for k in range(projs[i].dim):
                cols.a[:, k] = (M.act(Matrix(F, incl.a[:, [k]])) * w).a[:, 0]
            summands.append(projs[i])
            blocks.append(cols)
    P, _, _ = direct_sum(summands, name=f"P({M.name})")
    mat = Matrix(F, np.hstack([b.a for b in blocks]))
    f = ModuleMap(P, M, mat)
    assert f.is_surjective()
    radspan = rad(P)[1].matrix
    assert rank(radspan.hstack(kernel_basis(mat))) == rank(radspan)
    return P, f


def _assert_same_cover(M):
    P, f = projective_cover(M)
    P0, f0 = _reference_projective_cover(M)
    assert P.name == P0.name and P == P0
    assert f.matrix == f0.matrix


@pytest.mark.parametrize("make", [
    lambda: dual_numbers(GF(2)), lambda: hereditary_a2(QQ),
    lambda: t2_dual_numbers(GF(2)),
], ids=["dual-numbers", "hereditary-a2", "t2-dual-numbers"])
def test_cover_matches_reference_on_inventory(make):
    ctx = FrobeniusContext(make())
    inventory = indecomposable_inventory(ctx)
    assert inventory
    for M in inventory:
        _assert_same_cover(M)


def test_cover_matches_reference_on_wild_resolution():
    # k<a,b>/(a,b)^2 over GF(2): the syzygies double in dimension, and from
    # P_5 on the cover's own products are large enough for float64 BLAS
    q = QuiverPresentation(F2, ["o"], [("a", "o", "o"), ("b", "o", "o")],
                           [[(1, (x, y))] for x in "ab" for y in "ab"])
    A = algebra_from_quiver(q)
    M = simples(A)[0]
    for _ in range(6):          # the terms P_0 .. P_5
        _assert_same_cover(M)
        M, _ = kernel_module(projective_cover(M)[1])


def _repeat_first_column(A):
    """column_space_basis with its first column twice: one summand too many."""
    B = column_space_basis(A)
    return B.hstack(B.take_columns([0])) if B.cols else B


@pytest.mark.parametrize("name, patch, message", [
    ("solve", lambda *a: None, "projection preimage failed at vertex 1"),
    ("rank", lambda *a: -1, "lift is not surjective"),
    ("column_space_basis", _repeat_first_column, "not minimal"),
], ids=["preimage", "surjective", "minimal"])
def test_cover_errors_name_module_and_step(dn, monkeypatch, name, patch, message):
    projective_indecs(dn)       # built before the patch
    S = simples(dn)[0]
    monkeypatch.setattr(algmod, name, patch)
    with pytest.raises(ModuleError) as err:
        projective_cover(S)
    assert str(err.value).startswith("projective cover of S1 (dim 1): ")
    assert message in str(err.value)
