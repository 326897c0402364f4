"""Run-to-run spread of the end-to-end metrics, one seed per run.

Run from the root of a source checkout:

    python3 bench/spread.py --runs 10 [--workload NAME ...] [--out FILE]

Runs ``bench/run.py`` once per seed (1..runs) on each workload with the
``run_seconds`` of BENCHMARK.json and prints, per metric, the median, the
quartiles and the interquartile range as a share of the median next to a
third of the metric's bound. Exit code 1 when a spread other than that of
``setup_s`` (whose spread the bound does not cover; only its median is
compared across commits) is not below that third. With ``--out`` the table
is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    table, steady = {}, True
    for name in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        table[name] = {"failed": failed}
        print(f"{name}  ({args.runs} runs, {failed} failed calls)")
        for metric, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds[metric]
            ok = metric == "setup_s" or share < bound / 3
            steady &= ok
            table[name][metric] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share,
                                   "values": xs}
            print(f"  {metric:<44} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"iqr/median {share:.4f}  < {bound / 3:.4f}{'' if ok else '  NOT STEADY'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
