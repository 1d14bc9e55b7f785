"""The benchmark's deterministic per-layer counts equal the newest record.

`perfbench/run.py --trace 1` runs a fixed number of units per workload
under the outside-in tracer; the counts in `DETERMINISTIC_COUNTS` repeat
exactly at one seed. Each `BENCH_<n>.json` at the repository root records
them for one change, so a change that moves a count writes a new file and
explains the move. This test recomputes the counts the same way and
requires exact equality with the newest file.
"""

import json
import re
from pathlib import Path

import pytest

from perfbench.tracing import DETERMINISTIC_COUNTS, Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def newest_bench() -> dict:
    numbered = {int(m.group(1)): p for p in ROOT.glob("BENCH_*.json")
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    return json.loads(numbered[max(numbered)].read_text(encoding="utf-8"))


def traced_counts(name: str, seed: int) -> dict:
    """The counts of one traced pass of `name`'s trace units at `seed`,
    after one set-up, as `run.py --trace 1` takes them."""
    workload = WORKLOADS[name](ROOT, seed)
    tracer = Tracer()
    try:
        workload.setup()
        tracer.install()
        try:
            for i in range(workload.trace_units):
                tracer.begin_unit(i)
                _, problem = workload.unit(i)
                tracer.end_unit()
                assert problem is None, f"{name} unit {i}: {problem}"
        finally:
            tracer.uninstall()
    finally:
        workload.close()
    metrics = tracer.metrics()
    return {k: metrics[k] for k in DETERMINISTIC_COUNTS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_equal_the_newest_bench_file(name):
    bench = newest_bench()
    assert traced_counts(name, bench["seed"]) == \
        bench["workloads"][name]["counts"]
