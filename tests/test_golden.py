"""Byte-identity of the command line on the four small fixtures and of the
six demos.

``tests/golden/cli.json`` holds the exit code and stdout of every command
of :func:`battery`, ``tests/golden/demos.json`` the stdout of every script
in ``demos/``, and ``tests/golden/suite.txt`` the criterion lines of
``run_suite(seed=0)`` (asserted in ``test_acceptance.py``).  A change that
alters any of these bytes fails here.  When an output change is intended,
rewrite the three files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import json
import pathlib
import runpy

import pytest

from stablext.algmod import simples
from stablext.cli import main
from stablext.fixtures import by_name

GOLDEN = pathlib.Path(__file__).with_name("golden")
DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))
SMALL_FIXTURES = ("dual-numbers", "trunc-poly-3", "hereditary-a2",
                  "t2-dual-numbers")


def battery():
    """gorenstein, check and dump per fixture; ring per simple; stablehom,
    pspace, omega and ext in degree 1 per ordered pair of simples."""
    cmds = []
    for fx in SMALL_FIXTURES:
        names = [f"S{i}" for i in range(1, len(simples(by_name(fx))) + 1)]
        base = ["--fixture", fx]
        cmds += [base + [c] for c in ("gorenstein", "check", "dump")]
        cmds += [base + ["ring", S] for S in names]
        for M in names:
            for N in names:
                cmds += [base + ["stablehom", M, N], base + ["pspace", M, N],
                         base + ["omega", M, N], base + ["ext", M, N, "1"]]
    return cmds


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def load_cli_golden():
    return json.loads((GOLDEN / "cli.json").read_text())


def run_demo(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


def load_demos_golden():
    return json.loads((GOLDEN / "demos.json").read_text())


def test_battery_is_the_recorded_one():
    assert [" ".join(a) for a in battery()] == list(load_cli_golden())


@pytest.mark.parametrize("argv", battery(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert run_cli(argv) == load_cli_golden()[" ".join(argv)]


def test_demos_are_the_recorded_ones():
    assert [d.name for d in DEMOS] == list(load_demos_golden())


@pytest.mark.parametrize("path", DEMOS, ids=lambda d: d.name)
def test_demo_output_matches_golden(path):
    assert run_demo(path) == load_demos_golden()[path.name]


if __name__ == "__main__":
    from stablext.suites import run_suite
    GOLDEN.mkdir(exist_ok=True)
    record = {" ".join(a): run_cli(a) for a in battery()}
    (GOLDEN / "cli.json").write_text(json.dumps(record, indent=1) + "\n")
    demos = {d.name: run_demo(d) for d in DEMOS}
    (GOLDEN / "demos.json").write_text(json.dumps(demos, indent=1) + "\n")
    lines = [r.line() for r in run_suite(seed=0, out=lambda line: None)]
    (GOLDEN / "suite.txt").write_text("\n".join(lines) + "\n")
