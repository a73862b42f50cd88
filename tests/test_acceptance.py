"""Acceptance gate: every headline property at its stated precision.

All comparisons are exact (rank or coordinate equality over Q or F_p); there
are no numeric tolerances anywhere.  One line per criterion is printed as
the batteries run; the individual tests then assert each verdict, so a red
criterion fails exactly one test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the live report,
or ``stablext suite`` for the command-line equivalent.
"""

import pathlib

import pytest

from stablext.suites import CRITERIA, run_suite

SEED = 0


@pytest.fixture(scope="module")
def results():
    out = {}
    print()
    for res in run_suite(seed=SEED, out=lambda line: None):
        print(res.line(show_time=True))
        out[res.number] = res
    return out


@pytest.mark.parametrize("number,name", [(n, name) for n, name, _ in CRITERIA])
def test_criterion(results, number, name):
    res = results[number]
    assert res.passed, f"criterion {number} ({name}): {res.detail}"


def test_criterion_lines_match_golden(results):
    golden = pathlib.Path(__file__).with_name("golden") / "suite.txt"
    lines = [results[n].line() for n, _, _ in CRITERIA]
    assert lines == golden.read_text().splitlines()
