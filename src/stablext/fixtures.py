"""Shipped example algebras and the parameter-1 Gorenstein search.

Every fixture is built through the public constructors so all structural
invariants are re-verified each time.  The search in
:func:`gorenstein_one_search` scans small cyclic Nakayama algebras and a
six-dimensional triangular table algebra for injective dimension one with
infinite global dimension; the first certified hit is the fixture used by
the acceptance suite.  :func:`nakayama_parameter` reads a cyclic Nakayama
algebra's parameter off its kill lengths without building it, which is
how the search rules those candidates out.
"""

from __future__ import annotations

from .exactlin import GF, QQ, Field
from .algmod import Algebra, QuiverPresentation, algebra_from_quiver, algebra_from_table

__all__ = [
    "dual_numbers", "trunc_poly", "hereditary_a2", "t2_dual_numbers",
    "cyclic_nakayama", "nakayama_parameter", "by_name", "FIXTURE_NAMES",
]


def dual_numbers(field: Field = GF(2)) -> Algebra:
    """k[x]/(x^2): one vertex, one loop, relation x.x."""
    q = QuiverPresentation(field, ["v"], [("x", "v", "v")],
                           [[(1, ("x", "x"))]])
    return algebra_from_quiver(q, name="k[x]/(x^2)")


def trunc_poly(power: int = 3, field: Field = GF(3)) -> Algebra:
    """k[x]/(x^power)."""
    q = QuiverPresentation(field, ["v"], [("x", "v", "v")],
                           [[(1, ("x",) * power)]])
    return algebra_from_quiver(q, name=f"k[x]/(x^{power})")


def hereditary_a2(field: Field = QQ) -> Algebra:
    """The path algebra of 1 -> 2: hereditary, dimension 3."""
    q = QuiverPresentation(field, ["1", "2"], [("a", "1", "2")])
    return algebra_from_quiver(q, name="kA2")


def cyclic_nakayama(field: Field, kill_lengths) -> Algebra:
    """Cyclic Nakayama algebra on v vertices.

    Arrows a_i: i -> i+1 (mod v); for each vertex i the path of length
    kill_lengths[i] starting at i is a relation.
    """
    v = len(kill_lengths)
    vertices = [str(i + 1) for i in range(v)]
    arrows = [(f"a{i + 1}", vertices[i], vertices[(i + 1) % v]) for i in range(v)]
    relations = []
    for i, c in enumerate(kill_lengths):
        path = tuple(f"a{(i + k) % v + 1}" for k in range(c))
        relations.append([(1, path)])
    q = QuiverPresentation(field, vertices, arrows, relations)
    return algebra_from_quiver(
        q, name=f"Nakayama{tuple(kill_lengths)}")


def nakayama_parameter(kill_lengths):
    """Exact Gorenstein parameter of ``cyclic_nakayama(F, kill_lengths)``.

    Pure integer arithmetic on the Kupisch series, the same over every
    field (Gustafson 1985; Ringel 2013); None when the parameter is
    infinite.  c_i = min(kill_i, c_{i+1} + 1) cyclically is the length of
    the projective at i.  A uniserial (t, l) has top t and length l; its
    syzygy is (t + l, c_t - l) and its cosyzygy the quotient of the
    longest uniserial with the same socle.  The parameter is the larger
    of the injective dimension of the projectives and the projective
    dimension of the injectives; a state met twice proves it infinite.
    """
    if not kill_lengths or min(kill_lengths) < 2:
        # shorter relations are not admissible, and the walk need not end
        raise ValueError(f"kill lengths must be at least 2, got {kill_lengths!r}")
    v = len(kill_lengths)
    c = [min(kill_lengths[(i + k) % v] + k for k in range(v)) for i in range(v)]
    # inj[s]: the injective with socle s, as (top, length)
    inj = []
    for s in range(v):
        l = 1
        while l < c[(s - l) % v]:
            l += 1
        inj.append(((s - l + 1) % v, l))

    def syzygy(t, l):
        return (t + l) % v, c[t] - l

    def cosyzygy(t, l):
        top, length = inj[(t + l - 1) % v]
        return top, length - l

    def dimension(step, state):
        seen = set()
        while state[1]:
            if state in seen:
                return None
            seen.add(state)
            state = step(*state)
        return len(seen) - 1

    dims = ([dimension(cosyzygy, (t, c[t])) for t in range(v)]
            + [dimension(syzygy, I) for I in inj])
    return None if None in dims else max(dims)


def t2_dual_numbers(field: Field = GF(2)) -> Algebra:
    """Upper triangular 2x2 matrices over k[x]/(x^2), entered by table.

    Basis: e1, e2, x1 (= x e1), x2 (= x e2), a (the off-diagonal unit,
    viewed as a map from corner 1 to corner 2), ax1 (= a x1 = x2 a).
    """
    labels = ["e1", "e2", "x1", "x2", "a", "ax1"]
    E1, E2, X1, X2, Aa, AX = range(6)
    d = 6

    def vec(**kw):
        v = [0] * d
        idx = {"e1": E1, "e2": E2, "x1": X1, "x2": X2, "a": Aa, "ax1": AX}
        for k, c in kw.items():
            v[idx[k]] = c
        return v

    products = {}
    # i * j is the product "first j, then i" of the matrix units
    table = {
        (E1, E1): vec(e1=1), (E2, E2): vec(e2=1),
        (X1, E1): vec(x1=1), (E1, X1): vec(x1=1), (X1, X1): [0] * d,
        (X2, E2): vec(x2=1), (E2, X2): vec(x2=1), (X2, X2): [0] * d,
        (Aa, E1): vec(a=1), (E2, Aa): vec(a=1),
        (Aa, X1): vec(ax1=1), (X2, Aa): vec(ax1=1),
        (AX, E1): vec(ax1=1), (E2, AX): vec(ax1=1),
        (X2, AX): [0] * d, (AX, X1): [0] * d,
    }
    products.update(table)
    return algebra_from_table(
        field, labels, products,
        unit=vec(e1=1, e2=1),
        idempotents=[vec(e1=1), vec(e2=1)],
        radical=[vec(x1=1), vec(x2=1), vec(a=1), vec(ax1=1)],
        name="T2(k[x]/(x^2))")


def indecomposable_inventory(ctx, max_syzygy_depth: int = 2):
    """A deterministic list of pairwise non-isomorphic indecomposables.

    Seeds with simples, indecomposable projectives and injectives, plus
    syzygies and cosyzygies of the simples up to the given depth; every
    candidate is split into certified indecomposable summands and the
    result is de-duplicated up to isomorphism.  For the shipped uniserial
    fixtures this recovers the full list of indecomposables.
    """
    from .algmod import (
        indecomposable_summands, injective_indecs, is_isomorphic,
        projective_indecs, rad, simples, top,
    )
    A = ctx.algebra
    seeds = []
    seeds.extend(simples(A))
    seeds.extend(projective_indecs(A))
    seeds.extend(injective_indecs(A))
    for S in simples(A):
        for k in range(1, max_syzygy_depth + 1):
            seeds.append(ctx.resolver.syzygy(S, k))
            seeds.append(ctx.resolver.cosyzygy(S, k))
    for P in projective_indecs(A):
        R, _ = rad(P)
        seeds.append(R)
        T, _, _ = top(P)
        seeds.append(T)
    out = []
    for cand in seeds:
        if cand.dim == 0:
            continue
        for piece in indecomposable_summands(cand):
            if not any(is_isomorphic(piece, m) for m in out):
                out.append(piece)
    for i, m in enumerate(out):
        m.name = m.name or f"M{i}"
    return out


FIXTURE_NAMES = ("dual-numbers", "trunc-poly-3", "hereditary-a2",
                 "t2-dual-numbers", "gorenstein-1-search")


def by_name(name: str, bound: int | None = None):
    """Fixture lookup used by the command line."""
    from .frobenius import gorenstein_one_search
    if name == "dual-numbers":
        return dual_numbers()
    if name == "trunc-poly-3":
        return trunc_poly()
    if name == "hereditary-a2":
        return hereditary_a2()
    if name == "t2-dual-numbers":
        return t2_dual_numbers()
    if name == "gorenstein-1-search":
        return gorenstein_one_search(bound=bound or 8)
    raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
