"""The workloads, each one unit of work in a fresh interpreter.

A unit builds its inputs from ``unit_seed``, runs the program, and checks
every output with a checker that does not trust the layer it checks.  It
returns the in-process set-up time, the time of the program's work, the
number of operations attempted and failed, and a digest of the answers
(used to compare traced and untraced runs).  A raise, a FAIL or an output
that fails its check is a failed operation; nothing here aborts a unit.

Program functions are looked up on the ``stablext`` modules at call time,
so spans installed by the tracer after import are seen.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from pathlib import Path

import reference

clock = time.perf_counter


class Outcome:
    """What one unit measured and checked."""

    def __init__(self):
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.criteria = {}
        self._digest = hashlib.sha256()

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def record(self, *answer):
        self._digest.update(repr(answer).encode())

    def as_dict(self) -> dict:
        return {"setup_s": self.setup_s, "wall_s": self.wall_s,
                "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "criteria": self.criteria,
                "answer": self._digest.hexdigest()}


# ----------------------------------------------------------------------
# suite: the product's own certification command
# ----------------------------------------------------------------------

# Work counts each criterion must report: the batteries are sized by the
# suite's parameters and the deterministic inventories, so a battery that
# shrinks fails here instead of reading as a speed-up.  Criterion 7's
# quasi-invertible and phantom counts vary with the seed and are checked
# against ``suite_record.json`` (written by ``record_suite.py``); a unit
# seed missing from it must reach the smallest recorded count of each.
SUITE_RECORD = {
    1: r"13 pairs, 83 composable basis triples",
    2: r"71 inventory pairs, all three dimensions equal",
    3: r"800 seeded morphisms, two-sided tests agree",
    4: r"400 seeded morphisms, both variances against all inventory",
    5: r"100 seeded \(beta, gamma\) pairs, both factorizations equal",
    6: r"15 endomorphism rings: axioms exact, phi a unital ring map",
    7: r"800 composable pairs; (\d+) certified quasi-invertibles inverted, "
       r"(\d+) phantoms killed",
    8: r"71 inventory pairs, rank equals dimension throughout",
    9: r"15 inventory modules, vanishing iff relative projective",
    10: r"80 seeded conflations, kernel equals image in both sequences",
    11: r"25 basis classes: sequence ops match cocycle ops",
    12: r"discovered-1-gorenstein: parameter 1, infinite global dimension, "
        r"max stable hom dim 1; criteria 2-11 ran on it",
    13: r"16 G-projective pairs, both hom dimensions equal",
}
C7_RECORD = {int(k): tuple(v) for k, v in json.loads(
    (Path(__file__).resolve().parent / "suite_record.json").read_text(
        encoding="utf-8"))["criterion_7"].items()}
C7_FLOOR = tuple(min(column) for column in zip(*C7_RECORD.values()))


def suite_counts_ok(unit_seed: int, counts: tuple) -> bool:
    """Criterion 7's (quasi-invertibles, phantoms) against the record."""
    if not counts:
        return True
    want = C7_RECORD.get(unit_seed)
    if want is not None:
        return counts == want
    return all(c >= low for c, low in zip(counts, C7_FLOOR))


def suite(sx, unit_seed: int, setup_only: bool) -> Outcome:
    """``suites.run_suite`` on all 13 criteria; set-up is the part of its wall
    time not inside any criterion (search, contexts, inventories)."""
    out = Outcome()
    t0 = clock()
    try:
        results = sx.suites.run_suite(
            seed=unit_seed, only=set() if setup_only else None, out=None)
    except Exception as e:  # a crash fails every criterion it prevented
        out.wall_s = clock() - t0
        for number in SUITE_RECORD:
            out.check(False, f"criterion {number}: {type(e).__name__}: {e}")
        out.record("raised", type(e).__name__, str(e))
        return out
    total = clock() - t0
    work = sum(r.seconds for r in results)
    out.setup_s, out.wall_s = total - work, work
    if setup_only:
        return out
    by_number = {r.number: r for r in results}
    for number, pattern in SUITE_RECORD.items():
        r = by_number.get(number)
        if r is None:
            out.check(False, f"criterion {number}: not run")
            continue
        out.criteria[number] = r.seconds
        out.record(number, r.passed, r.detail)
        m = re.fullmatch(pattern, r.detail)
        counts_ok = m is not None and suite_counts_ok(
            unit_seed, tuple(int(g) for g in m.groups()))
        out.check(r.passed and counts_ok,
                  f"criterion {number}: {'PASS' if r.passed else 'FAIL'} "
                  f"{r.detail!r}")
    return out


# ----------------------------------------------------------------------
# reject-wild: loading a non-Gorenstein algebra must be refused
# ----------------------------------------------------------------------

WILD_BOUND = 7
_ARROW_POOL = ("x", "y", "u", "w", "s", "t", "b", "c")


def wild_text(rng: random.Random) -> str:
    """k<a,b>/(a,b)^2 over GF(2) as a workspace file; the seed picks the
    arrow names, their order and the order of the four relations."""
    a, b = rng.sample(_ARROW_POOL, 2)
    relations = [f"relation {x}.{y}" for x in (a, b) for y in (a, b)]
    rng.shuffle(relations)
    return "\n".join(["field F 2", "quiver", "vertex o",
                      f"arrow {a} o o", f"arrow {b} o o", *relations, "end", ""])


def reject_wild(sx, unit_seed: int, setup_only: bool) -> Outcome:
    out = Outcome()
    text = wild_text(random.Random(unit_seed))
    t0 = clock()
    ws = sx.textio.loads_workspace(text)
    out.setup_s = clock() - t0
    if setup_only:
        return out
    t0 = clock()
    try:
        ws.context(detection_bound=WILD_BOUND)
        raised = None
    except Exception as e:
        raised = e
    out.wall_s = clock() - t0
    refused = isinstance(raised, sx.frobenius.CertificationError)
    names_bound = refused and re.search(rf"(?<!\d){WILD_BOUND}(?!\d)",
                                        str(raised)) is not None
    out.record(type(raised).__name__, str(raised))
    out.check(names_bound, f"expected CertificationError naming bound "
                           f"{WILD_BOUND}, got {raised!r}")
    return out


# ----------------------------------------------------------------------
# hom-ladder: Hom between large free modules at a large prime
# ----------------------------------------------------------------------

LADDER_PRIME = 2**31 - 1
LADDER_LENGTHS = (4, 4, 4, 5)     # cyclic Nakayama algebra of dimension 17
LADDER_MULTIPLES = (1, 2, 3)      # modules A^k of dimension 17, 34, 51
LADDER_PAIRS = 8                  # seeded compositions per size


def _reference_actions(A, k: int):
    """Sparse action of each path-algebra generator (vertex or arrow, i.e.
    a basis label that is not a product) on A^k, read from the structure
    constants alone."""
    d = A.dim
    gens = [b for b, label in enumerate(A.labels) if "." not in label]
    actions = []
    for b in gens:
        # column j of left multiplication by basis_b is table[b][j]
        cols = [[int(v) for v in A.table[b][j]] for j in range(d)]
        block = [[(j, cols[j][i]) for j in range(d) if cols[j][i]]
                 for i in range(d)]
        actions.append([[(q * d + j, v) for j, v in block[i]]
                        for q in range(k) for i in range(d)])
    return gens, actions


def hom_ladder(sx, unit_seed: int, setup_only: bool) -> Outcome:
    out = Outcome()
    p = LADDER_PRIME
    rng = random.Random(unit_seed)
    t0 = clock()
    F = sx.GF(p)
    A = sx.fixtures.cyclic_nakayama(F, LADDER_LENGTHS)
    R = A.regular_module()
    mods = [R if k == 1 else sx.direct_sum([R] * k)[0] for k in LADDER_MULTIPLES]
    out.setup_s = clock() - t0
    if setup_only:
        return out
    for k, M in zip(LADDER_MULTIPLES, mods):
        n, want = A.dim * k, A.dim * k * k
        gens, ref = _reference_actions(A, k)
        t0 = clock()
        try:
            basis = sx.hom_space(M, M)
            P, defl = sx.projective_cover(M)
            err = None
        except Exception as e:
            basis, P, defl, err = [], None, None, e
        out.wall_s += clock() - t0
        out.record(k, [b.matrix.a.tolist() for b in basis], repr(err))
        mats = [reference.sparse(b.matrix.a.tolist()) for b in basis]
        flat = [{i * n + j: v for i, row in enumerate(m) for j, v in row}
                for m in mats]
        r = reference.rank(flat, p)
        out.check(len(basis) == want and r == want,
                  f"dim {n}: Hom basis has {len(basis)} maps of rank {r}, "
                  f"expected {want} ({err!r})")
        for i in range(want):
            ok = i < len(basis) and reference.intertwines(
                basis[i].matrix.a.tolist(), ref, ref, p)
            out.check(ok, f"dim {n}: basis map {i} is not a homomorphism")
        if P is None:
            out.check(False, f"dim {n}: projective_cover raised {err!r}")
        else:
            d = defl.matrix.a.tolist()
            p_act = [reference.sparse(P.action[b].a.tolist()) for b in gens]
            out.record(P.dim, d)
            out.check(P.dim == n and reference.dense_rank(d, p) == n
                      and reference.intertwines(d, p_act, ref, p),
                      f"dim {n}: projective cover is not an isomorphism "
                      f"onto A^{k}")
        for pair in range(LADDER_PAIRS):
            f_ref, g_ref = (reference.combine(
                [rng.randrange(p) for _ in mats], mats, n, n, p) for _ in "fg")
            t0 = clock()
            try:
                f = sx.ModuleMap(M, M, sx.Matrix.from_rows(F, f_ref))
                g = sx.ModuleMap(M, M, sx.Matrix.from_rows(F, g_ref))
                got = (g * f).matrix.a.tolist()
            except Exception as e:
                got = repr(e)
            out.wall_s += clock() - t0
            out.record(got)
            out.check(got == reference.matmul(g_ref, f_ref, p),
                      f"dim {n}: composition {pair} differs from the "
                      f"Python-integer product")
    return out


WORKLOADS = {"suite": suite, "reject-wild": reject_wild, "hom-ladder": hom_ladder}
