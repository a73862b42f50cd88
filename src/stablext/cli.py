"""Command-line surface.

Load a workspace file (see :mod:`stablext.textio` for the format) or one of
the shipped fixtures, then run computations or the acceptance batteries::

    stablext --fixture dual-numbers gorenstein
    stablext --fixture t2-dual-numbers stablehom S1 S1
    stablext --load my_algebra.txt ext M N 1
    stablext suite            # all acceptance criteria; exit 0 iff green

Fixture workspaces register the simple modules as S1, S2, ..., the
indecomposable projectives as P1, ..., the indecomposable injectives as
I1, ..., and the regular module as A.  Exit codes: 0 success, 1 assertion
failure (or stdout closed by its reader, which ends the run quietly), 2
input error.  Output is deterministic: identical invocations print
identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algmod import (
    AlgebraError, ConflationError, ModuleError, injective_indecs,
    projective_indecs, simples,
)
from .exactlin import FieldMismatch
from .fixtures import FIXTURE_NAMES, by_name
from .frobenius import CertificationError
from .phantom import ext_ring, is_phantom, is_quasi_invertible, p_subspace
from .resolve import ResolutionBoundError
from .stablecat import omega_iso, stable_hom
from .textio import ParseError, Workspace, dump_workspace, load_workspace

# a resolution past --bound is an input error: a larger --bound lifts it
INPUT_ERRORS = (ParseError, AlgebraError, ModuleError, ConflationError,
                FieldMismatch, KeyError, ValueError, FileNotFoundError,
                ResolutionBoundError)


def _fixture_workspace(name: str, bound) -> Workspace:
    algebra = by_name(name, bound=bound)
    ws = Workspace(algebra)
    for i, S in enumerate(simples(algebra), start=1):
        ws.add_module(f"S{i}", S)
    for i, P in enumerate(projective_indecs(algebra), start=1):
        ws.add_module(f"P{i}", P)
    for i, I in enumerate(injective_indecs(algebra), start=1):
        ws.add_module(f"I{i}", I)
    ws.add_module("A", algebra.regular_module())
    return ws


def _matrix_lines(m) -> list[str]:
    return ["  [" + " ".join(str(m[r, c]) for c in range(m.cols)) + "]"
            for r in range(m.rows)]


def cmd_check(ws, ctx, args, out):
    ws.check()
    out(f"algebra ok: dim {ws.algebra.dim}, "
        f"{ws.algebra.n_idempotents} idempotents, field {ws.algebra.field}")
    for name in sorted(ws.modules):
        out(f"module {name}: dim {ws.modules[name].dim} ok")
    for name in sorted(ws.maps):
        f = ws.maps[name]
        out(f"map {name}: {f.source.name or '?'} -> {f.target.name or '?'} ok")
    return 0


def cmd_gorenstein(ws, ctx, args, out):
    out(f"gorenstein parameter: {ctx.n}")
    out(f"resolution bound: {ctx.bound}")
    return 0


def cmd_ext(ws, ctx, args, out):
    M = ws.module(args.M)
    N = ws.module(args.N)
    space = ctx.resolver.ext(M, N, args.n)
    out(f"dim Ext^{args.n}({args.M}, {args.N}) = {space.dim}")
    for j, elt in enumerate(space.basis_elements()):
        out(f"basis element {j}: cocycle on P_{args.n} -> {args.N}")
        for line in _matrix_lines(elt.cocycle.matrix):
            out(line)
    return 0


def cmd_pspace(ws, ctx, args, out):
    M = ws.module(args.M)
    N = ws.module(args.N)
    pm = p_subspace(ctx, M, N)
    out(f"dim Ext^{ctx.n}({args.M}, {args.N}) = {pm.ext.dim}")
    out(f"dim P({args.M}, {args.N}) = {pm.ext.dim - pm.dim}")
    out(f"dim Ext^{ctx.n}/P = {pm.dim}")
    return 0


def cmd_sigma(ws, ctx, args, out):
    f = ws.map(args.f)
    out(f"quasi-invertible({args.f}) = {str(is_quasi_invertible(ctx, f)).lower()}")
    return 0


def cmd_phantom(ws, ctx, args, out):
    f = ws.map(args.f)
    out(f"phantom({args.f}) = {str(is_phantom(ctx, f)).lower()}")
    return 0


def cmd_stablehom(ws, ctx, args, out):
    M = ws.module(args.M)
    N = ws.module(args.N)
    sp = stable_hom(ctx, M, N)
    out(f"dim {sp.dim}")
    for j, m in enumerate(sp.basis()):
        elt = m.representative()
        out(f"basis coset {j}: representative cocycle")
        for line in _matrix_lines(elt.cocycle.matrix):
            out(line)
    return 0


def cmd_ring(ws, ctx, args, out):
    M = ws.module(args.M)
    ring = ext_ring(ctx, M)
    out(f"stable endomorphism ring of {args.M}: dim {ring.dim}")
    out("one = [" + " ".join(str(ring.one[i, 0]) for i in range(ring.dim)) + "]")
    for i in range(ring.dim):
        for j in range(ring.dim):
            prod = ring.table[(i, j)]
            out(f"b{i} * b{j} = ["
                + " ".join(str(prod[k, 0]) for k in range(ring.dim)) + "]")
    return 0


def cmd_omega(ws, ctx, args, out):
    M = ws.module(args.M)
    N = ws.module(args.N)
    om = omega_iso(ctx, M, N)
    out(f"dim hom({args.M}, {args.N}) = {om.source.dim}")
    out(f"dim hom(syz {args.M}, syz {args.N}) = {om.target.dim}")
    out(f"bijective: {str(om.is_bijective()).lower()}")
    return 0


def cmd_dump(ws, ctx, args, out):
    out(dump_workspace(ws).rstrip("\n"))
    return 0


def cmd_suite(ws, ctx, args, out):
    from .suites import run_suite
    only = set(args.criteria) if args.criteria else None
    results = run_suite(seed=args.seed, bound=args.bound, only=only,
                        out=lambda line: out(line))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stablext",
        description="stable-category computations over finite-dimensional "
                    "Gorenstein algebras")
    parser.add_argument("--load", metavar="FILE", help="workspace file to load")
    parser.add_argument("--fixture", choices=FIXTURE_NAMES,
                        help="use a shipped example algebra")
    parser.add_argument("--bound", type=int, default=None,
                        help="resolution length bound override")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", help="re-run all structural invariants")
    sub.add_parser("gorenstein", help="print the detected parameter")
    p = sub.add_parser("ext", help="an Ext space between named modules")
    p.add_argument("M"), p.add_argument("N"), p.add_argument("n", type=int)
    p = sub.add_parser("pspace", help="the subfunctor quotient dimensions")
    p.add_argument("M"), p.add_argument("N")
    p = sub.add_parser("sigma", help="quasi-invertibility of a named map")
    p.add_argument("f")
    p = sub.add_parser("phantom", help="phantom test of a named map")
    p.add_argument("f")
    p = sub.add_parser("stablehom", help="a stable hom-space")
    p.add_argument("M"), p.add_argument("N")
    p = sub.add_parser("ring", help="stable endomorphism ring table")
    p.add_argument("M")
    p = sub.add_parser("omega", help="the syzygy isomorphism data")
    p.add_argument("M"), p.add_argument("N")
    sub.add_parser("dump", help="emit the workspace in the text format")
    p = sub.add_parser("suite", help="run acceptance criteria")
    p.add_argument("criteria", nargs="*", type=int,
                   help="criterion numbers (default: all)")

    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush
        # at interpreter exit cannot fail again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args) -> int:
    out = print
    handlers = {
        "check": cmd_check, "gorenstein": cmd_gorenstein, "ext": cmd_ext,
        "pspace": cmd_pspace, "sigma": cmd_sigma, "phantom": cmd_phantom,
        "stablehom": cmd_stablehom, "ring": cmd_ring, "omega": cmd_omega,
        "dump": cmd_dump, "suite": cmd_suite,
    }

    try:
        if args.command == "suite":
            return cmd_suite(None, None, args, out)
        if args.load and args.fixture:
            raise ValueError("--load and --fixture are mutually exclusive")
        if args.load:
            ws = load_workspace(args.load)
        elif args.fixture:
            ws = _fixture_workspace(args.fixture, args.bound)
        else:
            raise ValueError("need --load FILE or --fixture NAME")
        ctx = None
        if args.command not in ("check", "dump"):
            try:
                ctx = ws.context(bound=args.bound)
            except CertificationError as e:
                # the loaded algebra is outside the detectable range: an
                # input problem, not an internal assertion failure
                print(f"error: {e}", file=sys.stderr)
                return 2
        return handlers[args.command](ws, ctx, args, out)
    except CertificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as e:
        msg = e.args[0] if e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
