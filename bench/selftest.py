"""Self-test of the benchmark at tiny sizes.

Run from the root of a source checkout:

    python3 bench/selftest.py

Every workload must pass its oracle untraced and traced (error rate 0, the
traced counts repeating and the spans adding up to the traced wall time). A
``curvature_bound_report`` or ``verify_exact`` replaced by one that returns a
perturbed value must fail every call (error rate 1), although the perturbed
curvature still leaves wkit's own verdict at "pass". BENCHMARK.json must list
exactly the workloads and metrics that run.py reports. Exit code 0 when all
of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run as bench

CASES = [  # workload, injected fault, expected error rate
    ("sweep-float", None, 0.0),
    ("sweep-exact", None, 0.0),
    ("curve-builtin", None, 0.0),
    ("curve-sampled", None, 0.0),
    ("sweep-exact", "exact", 1.0),
    ("curve-builtin", "curvature", 1.0),
    ("curve-sampled", "curvature", 1.0),
]


def spec_problems() -> list[str]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py reports")
    return problems


def main() -> int:
    problems = spec_problems()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=bench.ROOT) as tmp:
        for name, fault, expected in CASES:
            work = bench.make_workload(name, 1, Path(tmp), small=True)
            traced = fault is None
            runs = bench.run_attempts(work, 0.0, traced, fault, min_attempts=4)
            if traced:
                bench.summarize_trace(runs)
            reasons = [a.error for _, a in runs if a.error]
            rate = len(reasons) / len(runs)
            ok = rate == expected
            print(f"{'ok' if ok else 'FAIL':4}  {name:<14} fault={fault or '-':<9} "
                  f"error_rate={rate}  {reasons[0] if reasons else ''}")
            if not ok:
                problems.append(f"{name} with fault {fault}: error rate {rate}, expected {expected}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
