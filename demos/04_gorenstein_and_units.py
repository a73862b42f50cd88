"""Gorenstein structure: the parameter, unit conflations, G-projectives.

The context detects the injective dimension of the regular module on both
sides; when both are finite the module category behaves as a relative
homological setting with that parameter n.  Nothing is taken on faith: the
coincidence of relative projectives and injectives, and the relative
projectivity of every middle term below, are certified by rank computations.
"""

from stablext import (
    GF, QQ, FrobeniusContext, gorenstein_one_search, gorenstein_parameter,
    projective_indecs, simples,
)
from stablext.fixtures import (
    dual_numbers, hereditary_a2, indecomposable_inventory, t2_dual_numbers,
)

# Parameter 0 is the classical self-injective case.
print("parameter of k[x]/(x^2):", gorenstein_parameter(dual_numbers(GF(2))))
print("parameter of the hereditary A2 algebra:",
      gorenstein_parameter(hereditary_a2(QQ)))

# The showcase fixture is discovered, not asserted: the search scans small
# cyclic Nakayama algebras first and lands on the triangular algebra over
# the dual numbers.  None of the 39 Nakayama candidates has parameter 1:
# 31 come out 0, 2, 3 or 4 and 8 are infinite.  An exact oracle on their
# kill lengths proves this, so none of them is built; the hit is certified
# by computation.
A = gorenstein_one_search()
print("search hit:", A.name, "of dimension", A.dim)
ctx = FrobeniusContext(A)
print("parameter:", ctx.n, "| resolution bound:", ctx.bound)
pds = [ctx.proj_dim(S, bound=8) for S in simples(A)]
print("projective dimensions of the simples (None = infinite):", pds)

# Unit conflations through degree n + 2 for the whole inventory; middles of
# the upward ones are injectives whose relative projectivity is certified.
inv = indecomposable_inventory(ctx)
print("inventory:", [f"{m.name}({m.dim})" for m in inv])
for M in inv[:3]:
    down = ctx.unit_down(M, ctx.n + 2)
    up = ctx.unit_up(M, ctx.n + 2)
    print(f"units on {M.name}: down middles "
          f"{[m.dim for m in down.conflation.middles]}, up middles "
          f"{[m.dim for m in up.conflation.middles]}")

# G-projectives: the vanishing test against the projectives plus the
# constructive extension of a projective coresolution, both required.
flags = {M.name: ctx.is_gproj(M) for M in inv}
print("Gorenstein projectives in the inventory:",
      sorted(name for name, ok in flags.items() if ok))
print("relative projectives:",
      sorted(M.name for M in inv if ctx.is_n_projective(M)))
print("ok")
