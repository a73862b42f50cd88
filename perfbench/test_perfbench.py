"""The benchmark's own tests: python3 -m pytest perfbench -q

They check the harness, not the program: the reference arithmetic, that
the metric lists agree with BENCHMARK.json, that tracing is deterministic
and changes no answer, and that the benchmark refuses to run without the
program.  The traced tests run every workload three times (about three
minutes in all, most of it the suite).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
import tracer
import workloads

P = 2**31 - 1


def test_reference_is_exact_near_two_to_the_31():
    row = [[P - 1] * 3]
    assert reference.matmul(row, [[P - 1]] * 3, P) == [[3]]
    assert reference.dense_rank([[1, 2], [2, 4]], P) == 1
    assert reference.dense_rank([[P - 1, 1], [1, 1]], P) == 2


def test_reference_homomorphism_check():
    shift = [[(1, 1)], []]          # the nilpotent 2x2 Jordan block
    assert reference.intertwines([[1, 0], [0, 1]], [shift], [shift], P)
    assert reference.intertwines([[0, 1], [0, 0]], [shift], [shift], P)
    assert not reference.intertwines([[1, 0], [0, 0]], [shift], [shift], P)


def test_suite_record_catches_fewer_certified_morphisms():
    seed, (sigmas, phantoms) = next(iter(workloads.C7_RECORD.items()))
    assert workloads.suite_counts_ok(seed, (sigmas, phantoms))
    assert not workloads.suite_counts_ok(seed, (sigmas - 1, phantoms))
    assert not workloads.suite_counts_ok(seed, (sigmas, 0))
    unrecorded = next(s for s in range(2**32) if s not in workloads.C7_RECORD)
    low = workloads.C7_FLOOR
    assert workloads.suite_counts_ok(unrecorded, low)
    assert not workloads.suite_counts_ok(unrecorded, (low[0] - 1, low[1]))
    assert not workloads.suite_counts_ok(unrecorded, (low[0], 0))
    # every unit seed of benchmark seeds 0-31 is recorded
    assert all(run.unit_seed(s, i) in workloads.C7_RECORD
               for s in range(32) for i in range(3))


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracer.metric_names()


@pytest.mark.parametrize("workload", run.WORKLOADS + run.UNLISTED)
def test_tracing_is_deterministic_and_changes_no_answer(workload):
    seed = run.unit_seed(0, 0)
    plain = run.run_unit(workload, seed)
    first = run.run_unit(workload, seed, trace=True)
    second = run.run_unit(workload, seed, trace=True)
    assert plain["answer"] == first["answer"] == second["answer"]
    assert first["counters"] == second["counters"]
    layers = run.per_layer(plain, first)
    assert list(layers) == [n for n, _ in tracer.metric_names()]
    calls = {k: v for k, (v, _) in layers.items() if k.endswith(".calls")}
    if workload != "suite":
        assert all(v == 0 for k, v in calls.items()
                   if k.startswith(("phantom.", "stablecat.")))
    if workload == "reject-wild":
        assert calls["algmod.hom_space.calls"] == 0
    if workload == "hom-ladder":
        assert calls["algmod.hom_space.calls"] == 3


def test_result_line_has_the_contract_keys():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reject-wild",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        list(run.END_TO_END)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
