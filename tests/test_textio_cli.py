import pathlib
import shlex
import subprocess
import sys

import pytest

from stablext.cli import main
from stablext.exactlin import GF
from stablext.fixtures import dual_numbers
from stablext.textio import (
    ParseError, Workspace, dump_workspace, loads_workspace,
)

DUAL_NUMBERS_FILE = """
# the dual numbers over F_2, with the simple module and two maps
field F 2

quiver
vertex v
arrow x v v
relation x.x
end

module S
dim 1
act e_v 1
act x 0
end

module Reg
dim 2
act e_v 1 0 ; 0 1
act x 0 0 ; 1 0
end

map idS S S
rows 1
end

map xmul Reg Reg
rows 0 0 ; 1 0
end
"""


def test_load_dual_numbers_file():
    ws = loads_workspace(DUAL_NUMBERS_FILE)
    assert ws.algebra.dim == 2
    assert ws.module("S").dim == 1
    assert ws.module("Reg").dim == 2
    assert ws.map("xmul").rank() == 1
    assert ws.check()


def test_malformed_structure_constants_named():
    bad = """
field F 2
algebra-table
dim 2
unit 1 0
e 1 1 0
mult 0 0 -> 1 0
mult 0 1 -> 0 1
mult 1 0 -> 0 1
mult 1 1 -> 0 1
radical 0 1
end
"""
    with pytest.raises(ParseError) as exc:
        loads_workspace(bad)
    assert "associativity" in str(exc.value) or "nilpotent" in str(exc.value)


def test_parse_error_carries_line_number():
    bad = "field F 2\nquiver\nvertex v\narrow x v w\nend\n"
    with pytest.raises(ParseError) as exc:
        loads_workspace(bad)
    assert "line 4" in str(exc.value)


_SECTION_BASE = "field F 2\nquiver\nvertex v\narrow x v v\nrelation x.x\nend\n"
_MODULE_S = "module S\ndim 1\nact e_v 1\nact x 0\nend\n"


@pytest.mark.parametrize("text, lineno, message", [
    ("field F 2\nquiver\n", 2, "quiver section not closed by 'end'"),
    ("field F 2\nquiver\nvertex v\n# trailing comment\n\n", 3,
     "quiver section not closed by 'end'"),
    ("field F 2\nalgebra-table\ndim 1\nunit 1\n", 4,
     "algebra-table section not closed by 'end'"),
    (_SECTION_BASE + "module S\ndim 1\nact e_v 1\n", 9,
     "module section not closed by 'end'"),
    (_SECTION_BASE + _MODULE_S + "map f S S\nrows 1\n", 13,
     "map section not closed by 'end'"),
    ("field F 2\nalgebra-table\ndim 1\nend\n", 4,
     "algebra-table needs 'dim' and 'unit'"),
    ("field F 2\nalgebra-table\ndim 1\nlabels a\n\nend\n", 6,
     "algebra-table needs 'dim' and 'unit'"),
    (_SECTION_BASE + "module S\nend\n", 8, "module needs 'dim'"),
    (_SECTION_BASE + _MODULE_S + "map f S S\n\nend\n", 14,
     "map 'f' needs a 'rows' line"),
])
def test_section_errors_name_their_line(text, lineno, message):
    # an unclosed section is reported at its last line; a section missing
    # a required line is reported at its 'end'
    with pytest.raises(ParseError) as exc:
        loads_workspace(text)
    assert exc.value.lineno == lineno
    assert str(exc.value) == f"line {lineno}: {message}"


_TABLE = "field F 2\nalgebra-table\n"


@pytest.mark.parametrize("text, lineno, message", [
    pytest.param(_TABLE + "mult 0 0 -> 1\ndim 1\nunit 1\nend\n", 3,
                 "'dim' must precede 'mult'", id="mult-before-dim"),
    pytest.param(_TABLE + "unit 1\ndim 1\nend\n", 3,
                 "'dim' must precede 'unit'", id="unit-before-dim"),
    pytest.param(_TABLE + "dim 1\nunit 1\ndim 2\nend\n", 5,
                 "'dim' given twice", id="dim-twice"),
    pytest.param(_TABLE + "dim x\nunit 1\nend\n", 3,
                 "dim: expected an integer, got 'x'", id="dim-not-int"),
    pytest.param(_TABLE + "dim\nunit 1\nend\n", 3,
                 "dim: expected an integer, got ''", id="dim-missing"),
    pytest.param(_TABLE + "dim 1\nunit 1\ne x 1\nend\n", 5,
                 "e: expected an integer, got 'x'", id="e-not-int"),
    pytest.param(_TABLE + "dim 1\nunit 1\nmult a 0 -> 1\nend\n", 5,
                 "mult: expected an integer, got 'a'", id="mult-not-int"),
    pytest.param(_TABLE + "dim -1\nunit 1\nend\n", 3,
                 "dim: expected a nonnegative integer, got -1", id="dim-negative"),
    pytest.param(_SECTION_BASE + "module S\ndim x\nend\n", 8,
                 "dim: expected an integer, got 'x'", id="module-dim-not-int"),
    pytest.param(_SECTION_BASE + "module S\ndim -2\nend\n", 8,
                 "dim: expected a nonnegative integer, got -2",
                 id="module-dim-negative"),
])
def test_integer_and_order_errors_name_their_line(tmp_path, capsys, text,
                                                  lineno, message):
    # a table's 'dim' comes first and once; dim, e and mult take
    # integers, and a dim is nonnegative
    f = tmp_path / "bad.txt"
    f.write_text(text, encoding="utf-8")
    assert main(["--load", str(f), "check"]) == 2
    assert capsys.readouterr().err == f"error: line {lineno}: {message}\n"


_QUIVER_F3 = "field F 3\nquiver\nvertex v\narrow x v v\n"


@pytest.mark.parametrize("text, lineno, message", [
    pytest.param(_QUIVER_F3 + "relation 1/0*x.x\nend\n", 5,
                 "bad scalar '1/0': Fraction(1, 0)", id="coeff-zero-denominator"),
    pytest.param(_QUIVER_F3 + "relation 1/3*x.x\nend\n", 5,
                 "bad scalar '1/3': 1/3 has no image in GF(3)",
                 id="coeff-not-in-field"),
    pytest.param(_QUIVER_F3 + "relation 2y*x.x\nend\n", 5,
                 "bad scalar '2y': Invalid literal for Fraction: '2y'",
                 id="coeff-not-a-number"),
    pytest.param(_SECTION_BASE + "module S\ndim 1\nact\nend\n", 9,
                 "expected 'act <basis-label> <rows>'", id="act-without-label"),
    pytest.param(_SECTION_BASE + "module S\ndim 1\nact z 1\nend\n", 9,
                 "unknown basis label 'z'", id="act-unknown-label"),
    pytest.param(_SECTION_BASE + _MODULE_S + "map f S T\nrows 1\nend\n", 12,
                 "map f: unknown module 'T'", id="map-unknown-module"),
])
def test_scalar_label_and_name_errors_name_their_line(tmp_path, capsys, text,
                                                      lineno, message):
    # relation coefficients are scalars of the field; an 'act' line names
    # a basis label, and a map names modules defined above it
    f = tmp_path / "bad.txt"
    f.write_text(text, encoding="utf-8")
    assert main(["--load", str(f), "check"]) == 2
    assert capsys.readouterr().err == f"error: line {lineno}: {message}\n"


_TABLE_DN = _TABLE + ("dim 2\n{labels}unit 1 0\ne 1 1 0\nmult 0 0 -> 1 0\n"
                      "mult 0 1 -> 0 1\nmult 1 0 -> 0 1\nradical 0 1\nend\n")


@pytest.mark.parametrize("text, lineno, message", [
    pytest.param(_SECTION_BASE + _MODULE_S + _MODULE_S, 12,
                 "duplicate object name 'S'", id="module-twice"),
    pytest.param(_SECTION_BASE + _MODULE_S + "map S S S\nrows 1\nend\n", 12,
                 "duplicate object name 'S'", id="map-named-like-module"),
    pytest.param(_SECTION_BASE + _MODULE_S + "map f S S\nrows 1\nend\n" * 2, 15,
                 "duplicate object name 'f'", id="map-twice"),
    pytest.param(_SECTION_BASE + "module S\ndim 1\nact e_v 1\nact x 0\nact x 0\n"
                 "end\n", 11, "'act x' given twice", id="act-twice"),
    pytest.param(_SECTION_BASE + "module S\ndim 1\ndim 1\nact e_v 1\nact x 0\n"
                 "end\n", 9, "'dim' given twice", id="module-dim-twice"),
    pytest.param(_SECTION_BASE + _MODULE_S + "map f S S\nrows 1\nrows 0\nend\n",
                 14, "'rows' given twice", id="rows-twice"),
    pytest.param(_TABLE_DN.format(labels="labels a\n"), 4,
                 "labels: expected 2 labels, got 1", id="labels-too-few"),
    pytest.param(_TABLE_DN.format(labels="labels a a\n"), 4,
                 "labels: 'a' given twice", id="label-twice"),
    pytest.param(_TABLE_DN.format(labels="labels a b\nlabels c d\n"), 5,
                 "'labels' given twice", id="labels-line-twice"),
])
def test_duplicates_name_their_line(tmp_path, capsys, text, lineno, message):
    # a name, a module's 'dim' and 'act <label>', a map's 'rows', a table's
    # 'labels' line and each label appear once; a table has one label per
    # basis element
    f = tmp_path / "bad.txt"
    f.write_text(text, encoding="utf-8")
    assert main(["--load", str(f), "check"]) == 2
    assert capsys.readouterr().err == f"error: line {lineno}: {message}\n"


def test_context_follows_its_arguments():
    ws = loads_workspace(DUAL_NUMBERS_FILE)
    assert ws.context().bound == 2 * ws.context().n + 4
    assert ws.context(bound=20).bound == 20
    assert ws.context(bound=9).bound == 9


def test_non_intertwiner_map_rejected():
    bad = DUAL_NUMBERS_FILE + "\nmap bad S Reg\nrows 1 ; 0\nend\n"
    with pytest.raises(ParseError):
        loads_workspace(bad)


def test_dump_round_trip():
    ws = loads_workspace(DUAL_NUMBERS_FILE)
    text = dump_workspace(ws)
    ws2 = loads_workspace(text)
    assert dump_workspace(ws2) == text
    assert ws2.algebra.dim == ws.algebra.dim
    assert ws2.module("S").action[1] == ws.module("S").action[1]


def test_fraction_scalars_parse():
    src = """
field Q
quiver
vertex a b
arrow f a b
end

module halfline
dim 1
act e_a 1
act e_b 0
act f 0
end
"""
    ws = loads_workspace(src)
    assert ws.module("halfline").dim == 1


# -- command line ----------------------------------------------------------


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_cli_gorenstein():
    code, out = run_cli("--fixture", "dual-numbers", "gorenstein")
    assert code == 0
    assert "gorenstein parameter: 0" in out


def test_cli_stablehom_dim_line():
    code, out = run_cli("--fixture", "dual-numbers", "stablehom", "S1", "S1")
    assert code == 0
    assert out.splitlines()[0] == "dim 1"


def test_cli_sigma_identity(tmp_path):
    f = tmp_path / "ws.txt"
    f.write_text(DUAL_NUMBERS_FILE, encoding="utf-8")
    code, out = run_cli("--load", str(f), "sigma", "idS")
    assert code == 0
    assert "quasi-invertible(idS) = true" in out


def test_cli_phantom_xmul(tmp_path):
    f = tmp_path / "ws.txt"
    f.write_text(DUAL_NUMBERS_FILE, encoding="utf-8")
    code, out = run_cli("--load", str(f), "phantom", "xmul")
    assert code == 0
    # multiplication by x on the regular module factors through nothing
    # projective except trivially; over the dual numbers it is a phantom
    # exactly when it factors through a projective
    assert out.strip().startswith("phantom(xmul) = ")


def test_cli_unknown_module_exit_2():
    code, _ = run_cli("--fixture", "dual-numbers", "stablehom", "S1", "NOPE")
    assert code == 2


def test_cli_resolution_past_the_bound_exit_2(capsys):
    # a larger --bound lifts it, so it is an input error, not a crash
    code, _ = run_cli("--fixture", "dual-numbers", "ext", "S1", "S1", "20")
    assert code == 2
    assert capsys.readouterr().err == \
        "error: resolution of S1 exceeded bound 10\n"
    code, out = run_cli("--fixture", "dual-numbers", "--bound", "22",
                        "ext", "S1", "S1", "20")
    assert code == 0 and out.startswith("dim Ext^20(S1, S1) = 1\n")


def test_cli_parse_error_exit_2(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("field F 2\nquiver\nvertex v\narrow x v w\nend\n",
                 encoding="utf-8")
    code, _ = run_cli("--load", str(f), "check")
    assert code == 2


def test_cli_check_reports_objects(tmp_path):
    f = tmp_path / "ws.txt"
    f.write_text(DUAL_NUMBERS_FILE, encoding="utf-8")
    code, out = run_cli("--load", str(f), "check")
    assert code == 0
    assert "algebra ok: dim 2" in out
    assert "module Reg: dim 2 ok" in out


def test_cli_dump_round_trip(tmp_path):
    f = tmp_path / "ws.txt"
    f.write_text(DUAL_NUMBERS_FILE, encoding="utf-8")
    code, out = run_cli("--load", str(f), "dump")
    assert code == 0
    f2 = tmp_path / "ws2.txt"
    f2.write_text(out, encoding="utf-8")
    code2, out2 = run_cli("--load", str(f2), "dump")
    assert code2 == 0
    assert out2 == out


def test_cli_deterministic_output():
    a = run_cli("--fixture", "t2-dual-numbers", "stablehom", "S1", "S2")
    b = run_cli("--fixture", "t2-dual-numbers", "stablehom", "S1", "S2")
    assert a == b


def test_cli_suite_subset():
    code, out = run_cli("--seed", "0", "suite", "2", "9")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 2
    assert all(l.startswith("[PASS]") for l in lines)


def _readme_command_lines():
    """Arguments of each ``stablext`` line in README's Command line block,
    except those that load a user's file and the full suite."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()]
    return [args[1:] for args in lines
            if args[:1] == ["stablext"] and "--load" not in args
            and args[1:] != ["suite"]]


@pytest.mark.parametrize("args", _readme_command_lines(), ids=" ".join)
def test_readme_command_lines_exit_0(args, capsys):
    assert main(args) == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stablext.cli", "--fixture", "dual-numbers",
         "gorenstein"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gorenstein parameter: 0" in proc.stdout


NON_GORENSTEIN_FILE = """
field F 2
quiver
vertex v
arrow x v v
arrow y v v
relation x.x
relation y.y
relation x.y
relation y.x
end
"""


def test_cli_undetected_context_exit_2(tmp_path):
    f = tmp_path / "ng.txt"
    f.write_text(NON_GORENSTEIN_FILE, encoding="utf-8")
    code, _ = run_cli("--load", str(f), "--bound", "6", "gorenstein")
    assert code == 2


def test_cli_ext_command():
    code, out = run_cli("--fixture", "dual-numbers", "ext", "S1", "S1", "2")
    assert code == 0
    assert out.splitlines()[0] == "dim Ext^2(S1, S1) = 1"


def test_cli_table_fixture_dump_round_trip(tmp_path):
    code, out = run_cli("--fixture", "t2-dual-numbers", "dump")
    assert code == 0
    f = tmp_path / "t2.txt"
    f.write_text(out, encoding="utf-8")
    code2, out2 = run_cli("--load", str(f), "dump")
    assert code2 == 0
    assert out2 == out


def test_cli_closed_stdout_exits_quietly():
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE
    import os
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stablext.cli", "--fixture",
             "t2-dual-numbers", "dump"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(w)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1
