"""Validate once: each check that construction skips, run here instead.

What a caller hands in is validated (``Algebra``, ``Module`` and
``ModuleMap`` built from given data, ``textio``, ``Workspace.check``), a
solve is certified by ``factor_through`` and ``lift_through``, and every
conflation checks its exactness.  Structure derived from validated
structure is built without re-checking, because a check already made
implies its property:

- the opposite algebra: its table is the transpose of A's, and
  associativity, the two-sided unit, orthogonal idempotents summing to 1,
  a nilpotent two-sided radical and dim A - dim J = r are each unchanged
  by transposing, so A^op passes ``_validate`` exactly when A does;
- the regular modules: the left regular action satisfies the structure
  constants by associativity, and the unit acts as 1 by the unit axiom;
- the projective inclusions: right multiplication by e commutes with left
  multiplication by associativity, and ``submodule`` finds the action on
  its image by one elimination that also certifies the image stable, so
  P_i is a submodule and its inclusion intertwines;
- a kernel module: the kernel of a module map is a submodule, so the
  action read off the free rows of the kernel basis K satisfies
  K.X_b = A_b.K;
- hom bases: each basis map intertwines the generators, and the
  generators (idempotents plus lifts of a basis of J/J^2) generate A
  because ``_validate`` certifies J as a nilpotent ideal with A = kE + J;
- a projective cover's deflation: each column block is a |-> a.w for an
  element w of M, which is A-linear because M is a module; it is onto
  with kernel inside rad P because its composite with M -> M/JM has rank
  dim M/JM, which is the number of summands of P (Nakayama's lemma);
- an injective envelope's inflation: it is the transpose of the cover of
  D(M) over A^op, and a transpose of an A^op-linear map is A-linear;
- the simples: A acts on S_i through A -> A/J = k^r, an algebra map
  because A is split basic with radical J;
- ``ExtSpace.element_from_coords``: Z is a kernel basis of precomposition
  with d_{n+1}, so Z.x is a cocycle on P_n(M) -> N.

Every test runs on each shipped fixture and on small cyclic Nakayama
algebras over GF(2), GF(3) and Q.
"""

import random

import numpy as np
import pytest

from stablext import algmod
from stablext.algmod import (
    ModuleMap, Module, column_space_basis, direct_sum, hom_space, image_module,
    injective_envelope, injective_indecs, kernel_module, projective_cover,
    projective_indecs, rad, random_hom, simples,
)
from stablext.exactlin import GF, QQ, kernel_basis, rank
from stablext.fixtures import FIXTURE_NAMES, by_name, cyclic_nakayama
from stablext.resolve import ExtElement, Resolver

NAKAYAMA = [(F, kills) for F in (GF(2), GF(3), QQ)
            for kills in ((3,), (2, 3), (3, 3, 4))]


@pytest.fixture(scope="module", params=list(FIXTURE_NAMES) + NAKAYAMA,
                ids=lambda p: p if isinstance(p, str)
                else "nakayama-" + "".join(map(str, p[1])) + f"-{p[0]}")
def alg(request):
    if isinstance(request.param, str):
        return by_name(request.param)
    return cyclic_nakayama(*request.param)


def _modules(A):
    """Simples, projectives, injectives and radicals of projectives."""
    projs = projective_indecs(A)
    return (simples(A) + projs + injective_indecs(A)
            + [rad(P)[0] for P in projs])


def test_opposite_algebra_validates(alg):
    op = alg.opposite()
    assert op.opposite() is alg
    d = alg.dim
    for i in range(d):
        for j in range(d):
            assert np.array_equal(op.table[i][j], alg.table[j][i]), (i, j)
    op._validate()


def test_regular_modules_validate(alg):
    for B in (alg, alg.opposite()):
        B.regular_module()._validate()


def test_projective_inclusions_intertwine(alg):
    for B in (alg, alg.opposite()):
        reg = B.regular_module()
        for e, P, incl in zip(B.idempotents, B._projs, B._proj_incls):
            right = ModuleMap(reg, reg, B.mult_by(e, "right"))
            ModuleMap(P, reg, incl)
            # the same object image_module builds before its corestriction
            im, im_incl, _ = image_module(right, name=P.name)
            assert im == P and im_incl.matrix == incl
            assert incl == column_space_basis(right.matrix)


def test_simples_validate(alg):
    for B in (alg, alg.opposite()):
        for S in simples(B):
            S._validate()


def test_hom_bases_intertwine_every_basis_element(alg):
    mods = _modules(alg)
    for M in mods:
        for N in mods:
            for h in hom_space(M, N):
                h._validate()


def test_covers_and_envelopes_intertwine(alg):
    for M in _modules(alg):
        projective_cover(M)[1]._validate()
        injective_envelope(M)[1]._validate()


def test_covers_are_onto_with_kernel_in_radical(alg):
    for M in _modules(alg):
        P, f = projective_cover(M)
        assert rank(f.matrix) == M.dim
        radspan = rad(P)[1].matrix
        assert rank(radspan.hstack(kernel_basis(f.matrix))) == rank(radspan)


def test_kernel_actions_intertwine(alg):
    # random maps too, so kernel basis columns have several nonzero entries
    rng = random.Random(3)
    mods = _modules(alg)
    maps = [projective_cover(M)[1] for M in mods]
    for M in mods:
        S = direct_sum([M, rng.choice(mods)])[0]
        maps.append(random_hom(rng, S, rng.choice(mods)))
    for f in maps:
        K, incl = kernel_module(f)
        incl._validate()
        K._validate()


def test_ext_basis_elements_are_cocycles(alg):
    resolver = Resolver(alg, bound=4)
    mods = simples(alg)
    for M in mods:
        for N in mods:
            for n in range(3):
                for elt in resolver.ext(M, N, n).basis_elements():
                    ExtElement(resolver, M, N, n, elt.cocycle)


def test_construction_validates_only_the_given_table(monkeypatch):
    calls = {cls: 0 for cls in (algmod.Algebra, Module, ModuleMap)}

    def counting(cls):
        check = cls._validate

        def run(self):
            calls[cls] += 1
            check(self)
        return run

    for cls in calls:
        monkeypatch.setattr(cls, "_validate", counting(cls))
    cyclic_nakayama(GF(2), (3, 3, 4))
    assert list(calls.values()) == [1, 0, 0]
