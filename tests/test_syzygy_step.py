"""One syzygy step, and the constructions it rests on, against references.

``kernel_module`` reads the action off the free rows of the canonical
kernel basis, ``submodule`` certifies independence and action-stability
with one elimination, and ``projective_cover`` certifies its lift with one
rank on the top.  The references below are the straightforward versions:
a rank and then one solve per basis element for a submodule, and a direct
rank of the lift plus a kernel-in-radical test for a cover.  Each new
construction must give identical modules and maps on the wild resolution
over GF(2), on the fixture inventories over GF(3) and Q, and on the
kernels inside pullbacks.  The last two tests hold a syzygy step to its
elimination budget, and ``direct_sum``'s maps to the entry-by-entry
construction.
"""

import random
import re
from itertools import product

import numpy as np
import pytest

from stablext import exactlin
from stablext.algmod import (
    ModuleError, ModuleMap, Module, QuiverPresentation, algebra_from_quiver,
    direct_sum, hom_space, kernel_module, projective_cover, projective_indecs,
    pullback, rad, random_hom, simples, socle, submodule,
)
from stablext.exactlin import GF, Matrix, kernel_basis, rank, solve
from stablext.fixtures import hereditary_a2, indecomposable_inventory, trunc_poly
from stablext.frobenius import FrobeniusContext

F2 = GF(2)


def _reference_submodule(M, span, name=""):
    """A rank, then one solve per basis element."""
    A = M.algebra
    assert rank(span) == span.cols
    action = []
    for b in range(A.dim):
        X = solve(span, M.action[b] * span)
        assert X is not None
        action.append(X)
    S = Module(A, span.cols, action, name=name, _skip_checks=True)
    return S, ModuleMap(S, M, span, _skip_checks=True)


def _reference_kernel_module(f, name=""):
    return _reference_submodule(f.source, kernel_basis(f.matrix),
                                name=name or f"ker({f.name})")


def _assert_reference_cover_checks(P, f):
    """The direct certificates: f is onto and ker f lies in rad P."""
    assert f.is_surjective()
    radspan = rad(P)[1].matrix
    assert rank(radspan.hstack(kernel_basis(f.matrix))) == rank(radspan)


def _assert_same(got, want):
    (S, incl), (S0, incl0) = got, want
    assert S.name == S0.name and S == S0
    assert all(x.a.dtype == y.a.dtype for x, y in zip(S.action, S0.action))
    assert incl.matrix == incl0.matrix


def _check_module(M):
    """Cover, syzygy, radical and socle of M against the references;
    returns the syzygy."""
    P, f = projective_cover(M)
    _assert_reference_cover_checks(P, f)
    for N, span in ((M, rad(M)[1].matrix), (M, socle(M)[1].matrix),
                    (P, rad(P)[1].matrix)):
        _assert_same(submodule(N, span, name="s"),
                     _reference_submodule(N, span, name="s"))
    got = kernel_module(f, name="syz")
    _assert_same(got, _reference_kernel_module(f, name="syz"))
    return got[0]


def _wild():
    """k<a,b>/(a,b)^2: the syzygies of the simple double in dimension."""
    q = QuiverPresentation(F2, ["o"], [("a", "o", "o"), ("b", "o", "o")],
                           [[(1, (x, y))] for x in "ab" for y in "ab"])
    return algebra_from_quiver(q)


def test_wild_resolution_matches_reference():
    M = simples(_wild())[0]
    for _ in range(7):          # the terms P_0 .. P_6
        M = _check_module(M)
    assert M.dim == 2 ** 7


@pytest.mark.parametrize("alg", [trunc_poly(3, GF(3)), hereditary_a2()],
                         ids=["trunc-poly-3-GF3", "hereditary-a2-Q"])
def test_inventory_matches_reference(alg):
    mods = indecomposable_inventory(FrobeniusContext(alg))
    for M in mods + projective_indecs(alg):
        _check_module(M)


@pytest.mark.parametrize("alg", [trunc_poly(3, GF(3)), hereditary_a2()],
                         ids=["trunc-poly-3-GF3", "hereditary-a2-Q"])
def test_pullback_kernels_match_reference(alg):
    # random maps, so kernel basis columns have more than one nonzero entry
    rng = random.Random(5)
    mods = indecomposable_inventory(FrobeniusContext(alg))
    mods.append(direct_sum(mods)[0])
    tried = 0
    for X, Y, Z in product(mods, repeat=3):
        if not hom_space(X, Z) or not hom_space(Y, Z):
            continue
        for _ in range(3):
            f, g = random_hom(rng, X, Z), random_hom(rng, Y, Z)
            W, pX, pY = pullback(f, g)
            S, _, projs = direct_sum([X, Y])
            h = ModuleMap(S, Z, f.matrix.hstack(-g.matrix), _skip_checks=True)
            W0, incl0 = _reference_kernel_module(h, name=W.name)
            assert W.name == W0.name and W == W0
            assert pX.matrix == (projs[0] * incl0).matrix
            assert pY.matrix == (projs[1] * incl0).matrix
            tried += 1
    assert tried >= 50, tried


@pytest.mark.parametrize("alg", [trunc_poly(3, GF(3)), hereditary_a2()],
                         ids=["trunc-poly-3-GF3", "hereditary-a2-Q"])
def test_submodule_errors_name_module_and_span(alg):
    P = max(projective_indecs(alg), key=lambda P: P.dim)
    basis = Matrix.identity(alg.field, P.dim)
    with pytest.raises(ModuleError, match=re.escape(
            f"submodule of {P.name} (dim {P.dim}) on 2 span columns: "
            "span columns are dependent")):
        submodule(P, basis.take_columns([0, 0]))
    # a basis vector that generates more than its own line
    j = next(j for j in range(P.dim)
             if rank(Matrix(alg.field, np.hstack(
                 [(act * basis.take_columns([j])).a for act in P.action]))) > 1)
    with pytest.raises(ModuleError, match=re.escape(
            f"submodule of {P.name} (dim {P.dim}) on 1 span columns: "
            "span is not action-stable")):
        submodule(P, basis.take_columns([j]))


def test_syzygy_step_elimination_budget(monkeypatch):
    """Each step of the wild simple's resolution: at most five eliminations
    to cover the syzygy and one to take the kernel of the cover."""
    M = simples(_wild())[0]
    calls = [0]
    run = exactlin._rref_array

    def counted(field, a):
        calls[0] += 1
        return run(field, a)

    monkeypatch.setattr(exactlin, "_rref_array", counted)
    for step in range(7):
        calls[0] = 0
        _, f = projective_cover(M)
        cover = calls[0]
        calls[0] = 0
        M, _ = kernel_module(f)
        assert cover <= 5 and calls[0] <= 1, (step, cover, calls[0])


@pytest.mark.parametrize("alg", [_wild(), trunc_poly(3, GF(3)), hereditary_a2()],
                         ids=["wild-GF2", "trunc-poly-3-GF3", "hereditary-a2-Q"])
def test_direct_sum_maps_match_entrywise_reference(alg):
    mods = projective_indecs(alg) + simples(alg)
    S, injs, projs = direct_sum(mods)
    F, off = alg.field, 0
    for m, inj, prj in zip(mods, injs, projs):
        want_inj = Matrix.zeros(F, S.dim, m.dim)
        want_prj = Matrix.zeros(F, m.dim, S.dim)
        for i in range(m.dim):
            want_inj.a[off + i, i] = F.of(1)
            want_prj.a[i, off + i] = F.of(1)
        assert inj.matrix == want_inj and prj.matrix == want_prj
        assert inj.matrix.a.dtype == want_inj.a.dtype
        off += m.dim
