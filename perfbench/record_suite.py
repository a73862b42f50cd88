"""Update ``suite_record.json``: criterion 7's seed-dependent work counts.

Criterion 7 draws 800 random morphisms and reports how many were certified
quasi-invertible and how many were phantoms; both numbers depend on the
seed.  The suite workload checks them against this record, so a change
that makes either test answer "no" more often (and so skips the work that
follows a "yes") fails instead of reading as a speed-up.

    python3 perfbench/record_suite.py --seeds 0 32

records the unit seeds of benchmark seeds 0 .. 31, units 0 .. 2 (a suite
run has two or three units), merging them into the record.  It runs
criterion 7 alone on fixtures built once, about 10 s per unit seed on a
2-core Xeon.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "suite_record.json"
UNITS_PER_SEED = 3
COUNTS = re.compile(r"800 composable pairs; (\d+) certified quasi-invertibles "
                    r"inverted, (\d+) phantoms killed")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(0, 32),
                    metavar=("FIRST", "END"))
    args = ap.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    from stablext import suites
    from run import unit_seed
    fx = suites._Fixtures()
    found = {}
    for seed in range(*args.seeds):
        for index in range(UNITS_PER_SEED):
            u = unit_seed(seed, index)
            # run_suite seeds criterion n with random.Random(seed + n)
            passed, detail = suites.criterion_7(fx, random.Random(u + 7))
            m = COUNTS.fullmatch(detail)
            if not passed or m is None:
                print(f"error: seed {seed} unit {index}: {detail}",
                      file=sys.stderr)
                return 1
            found[str(u)] = [int(g) for g in m.groups()]
            print(seed, index, u, *found[str(u)], flush=True)
    record = json.loads(RECORD.read_text(encoding="utf-8")) \
        if RECORD.exists() else {"criterion_7": {}}
    record["criterion_7"].update(found)
    record["criterion_7"] = dict(sorted(record["criterion_7"].items(),
                                        key=lambda kv: int(kv[0])))
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                       for k, v in record["criterion_7"].items())
    RECORD.write_text('{"criterion_7": {\n' + lines + "\n}}\n",
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
