"""One unit of one workload, in the fresh interpreter ``run.py`` starts.

Prints one JSON line: set-up seconds since the parent started this process
(interpreter start and ``import stablext`` included), work seconds, peak
resident memory, operations attempted and failed, the answer digest and,
when traced, the per-layer metrics and deterministic counters.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--unit-seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file to write the spans to (traced only)")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stablext
    import stablext.suites  # noqa: F401  (the suite workload's entry point)
    if Path(stablext.__file__).resolve().parent != src / "stablext":
        print(f"error: imported stablext from {stablext.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    imported = time.monotonic()

    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(stablext)

    started = time.monotonic()
    out = workloads.WORKLOADS[args.workload](stablext, args.unit_seed,
                                             args.setup_only)
    result = out.as_dict()
    # set-up is everything before the first timed operation; the harness's
    # own imports and tracer installation between the two stamps are not
    result["setup_s"] += imported - args.spawned_at
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["elapsed_s"] = time.monotonic() - started
    if tracer is not None:
        result["layers"] = tracer.values()
        result["counters"] = tracer.counters()
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
