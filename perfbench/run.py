"""The stablext benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every unit of work runs in its own fresh interpreter, one at a
time (one caller, closed loop), so caches and memory never carry over
between units or workloads.

``--trace 0`` repeats units until ``--seconds`` have passed (at least
``MIN_UNITS``) and reports the end-to-end metrics: median set-up time
(over ``SETUPS`` set-ups, most of them set-up-only units run between the
full ones), median work time, median peak resident memory per unit
process, and the share of checked operations that passed.  ``--trace 1`` runs the
first unit of the seed once untraced and once traced, and reports the
per-layer metrics of the traced one; the two must give identical answers.

The last line of stdout is the result object; the line before it is the
environment block, which is recorded but gates nothing.  Both also go to
``.perfbench/`` in the checkout, with the spans of traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "stablext"
OUT = ROOT / ".perfbench"
WORKLOADS = ("suite", "reject-wild")
# Runnable, but not in BENCHMARK.json: at p = 2^31 - 1 the program's
# compositions are wrong (int64 overflow in Matrix.__mul__), and a
# benchmark workload must be one on which no operation fails.
UNLISTED = ("hom-ladder",)
# Set-up samples per run.  Up to SETUPS_BEFORE_UNIT set-up-only units go
# before each full unit until there are that many, so that the samples
# spread over the run instead of all falling in one of the machine's speed
# states.
SETUPS = {"suite": 8, "reject-wild": 25, "hom-ladder": 15}
# Full units per run, however long they take.  Two suite units (about 20 s
# each) fit in --seconds only when the machine is fast; a run of one unit
# is one sample of the machine's speed.
MIN_UNITS = {"suite": 2, "reject-wild": 1, "hom-ladder": 1}
SETUPS_BEFORE_UNIT = 2
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_share", "ratio"))
RUN_LIMIT_S = 170     # every unit of a run must end within this
NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {v: str(NPROC) for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class HarnessError(RuntimeError):
    """A unit process that failed to report: no result can be given."""


def unit_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_unit(workload: str, seed: int, *, setup_only=False, trace=False,
             spans: Path | None = None, deadline: float | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--unit-seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_CAPS)
    now = time.monotonic()
    timeout = max(1.0, (deadline or now + RUN_LIMIT_S) - now)
    cmd += ["--spawned-at", repr(now)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"{workload} unit {seed} did not end within "
                           f"the run's {RUN_LIMIT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} unit {seed} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float):
    units, setups = [], []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    want = SETUPS[workload]

    def set_up_only():
        setups.append(run_unit(workload, unit_seed(seed, len(setups)),
                               setup_only=True, deadline=deadline)["setup_s"])

    while (len(units) < MIN_UNITS[workload]
           or time.monotonic() - start < seconds):
        for _ in range(min(SETUPS_BEFORE_UNIT, want - len(setups))):
            set_up_only()
        units.append(run_unit(workload, unit_seed(seed, len(units)),
                              deadline=deadline))
        setups.append(units[-1]["setup_s"])
    while len(setups) < want:
        set_up_only()
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    values = (statistics.median(setups),
              statistics.median(u["wall_s"] for u in units),
              statistics.median(u["rss_mb"] for u in units),
              1 - failed / attempted)
    metrics = {name: (v, unit) for (name, unit), v in zip(END_TO_END, values)}
    detail = {"units": units, "setup_samples": setups}
    return attempted, failed, metrics, detail


def per_layer(plain: dict, traced_unit: dict) -> dict:
    """The per-layer metrics of a traced unit, with the criterion times
    and the tracing overhead taken from the untraced run of the same unit."""
    values = dict(traced_unit["layers"])
    for n in tracer.SUITE_CRITERIA:
        values[f"suites.criterion_{n:02d}_s"] = plain["criteria"].get(str(n), 0.0)
    values["trace.overhead_s"] = traced_unit["wall_s"] - plain["wall_s"]
    return {name: (values[name], unit) for name, unit in tracer.metric_names()}


def traced(workload: str, seed: int):
    first = unit_seed(seed, 0)
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = run_unit(workload, first, deadline=deadline)
    spans = OUT / f"spans-{workload}.npz"
    traced_unit = run_unit(workload, first, trace=True, spans=spans,
                           deadline=deadline)
    same = plain["answer"] == traced_unit["answer"]
    attempted = plain["attempted"] + traced_unit["attempted"] + 1
    failed = plain["failed"] + traced_unit["failed"] + (not same)
    metrics = per_layer(plain, traced_unit)
    detail = {"untraced": plain, "traced": traced_unit,
              "answers_equal": same, "spans": str(spans.relative_to(ROOT))}
    return attempted, failed, metrics, detail


def environment() -> dict:
    """Recorded with every run; nothing here is a gate."""
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": NPROC, "thread_caps": THREAD_CAPS, "cpu": cpu,
            "platform": platform.platform(), "git_commit": commit,
            "source_sha256": digest.hexdigest(), "source_lines": lines,
            "source_lines_total": sum(lines.values())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no stablext sources at {PACKAGE}; run from the root "
              f"of a stablext checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            attempted, failed, metrics, detail = traced(args.workload, args.seed)
        else:
            attempted, failed, metrics, detail = end_to_end(
                args.workload, args.seed, args.seconds)
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    info = environment()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"args": vars(args), "environment": info,
                                  "result": result, "detail": detail},
                                 indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
