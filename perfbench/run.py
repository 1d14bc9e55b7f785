"""Kernel benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload corpus|church|coerce --seed N \
        --seconds S --trace 0|1

Run from the repository root; the kernel is imported from `src/`. With
`--trace 0` the run sets up SETUP_REPEATS times, then runs units in a
closed loop for S seconds (finishing the current pass over the inputs)
and reports the end-to-end metrics. With `--trace 1` it runs a fixed
set of units untraced and then traced, and reports per-layer metrics
and the tracing overhead. The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`; see README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _import_kernel() -> float:
    """Put `src/` first on the path and import the kernel; calibrated
    seconds the import took."""
    src = ROOT / "src"
    if not (src / "cedlite" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kernel sources at {src / 'cedlite'}")
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.calibrate import chunk_seconds
    from perfbench.harness import timed

    chunk_seconds()                       # first run warms the chunk itself
    elapsed = timed(lambda: importlib.import_module("cedlite.cli"))
    cli = sys.modules["cedlite.cli"]
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported a kernel outside {src}")
    return elapsed


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def end_to_end(workload, seconds: float, import_s: float):
    from perfbench.harness import percentile, run_pass, timed, units_for_tail

    setups = [timed(workload.setup) for _ in range(SETUP_REPEATS)]
    p = workload.tail_p
    run = run_pass(workload, seconds=seconds, min_units=units_for_tail(p))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "unit_s_p50": (statistics.median(run.times), "s"),
        "unit_s_tail": (percentile(run.times, p), "s"),
        "verdicts_per_s": (run.verdicts / sum(run.times), "1/s"),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = (f"units={run.attempted} tail=p{p:g} "
            f"raw_p50={statistics.median(run.raw_times):.4f} "
            f"setups={','.join(f'{s:.3f}' for s in setups)} "
            f"import_s={import_s:.3f}")
    return run, metrics, info


def per_layer(workload):
    from perfbench.harness import Pass, run_pass, traced_pass

    units = workload.trace_units
    workload.setup()
    base = run_pass(workload, units=units)
    workload.setup()
    traced, tracer = traced_pass(workload, units)
    values = tracer.metrics()
    values["trace.overhead_ratio"] = sum(traced.times) / sum(base.times)
    values["trace.units"] = units
    metrics = {k: (v, _unit(k)) for k, v in values.items()}
    both = Pass(attempted=base.attempted + traced.attempted,
                failed=base.failed + traced.failed,
                problems=base.problems + traced.problems)
    return both, metrics, f"units={units} spans={len(tracer.spans)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "church", "coerce"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_s = _import_kernel()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        if args.trace:
            run, metrics, info = per_layer(workload)
        else:
            run, metrics, info = end_to_end(workload, args.seconds, import_s)
    finally:
        workload.close()
    for problem in run.problems[:5]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {info}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
