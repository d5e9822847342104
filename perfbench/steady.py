"""Steadiness mode: repeat workloads on fresh seeds and report the spread.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload NAME ...]
    python3 perfbench/steady.py --runs 1      # every workload once

Run from the repository root.  For each workload, run.py runs `--runs` times
with seeds 1..runs (each run lasts BENCHMARK.json's run_seconds).  For every
end-to-end metric the table shows the median, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread (q3 - q1) / median next
to the metric's bound.  A spread above a third of its bound is flagged `!`,
above the bound `!!`; setup_s is exempt from the spread test.  With
`--sets 2` the runs are repeated and the shift of the second median against
the first is checked against the bound, for setup_s too.  `--save FILE`
writes every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-1000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} units failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="default: the workloads in BENCHMARK.json")
    parser.add_argument("--save")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    saved: dict = {}
    ok = True
    for workload in workloads:
        sets = [
            [one_run(workload, seed, spec["run_seconds"]) for seed in range(1, args.runs + 1)]
            for _ in range(args.sets)
        ]
        saved[workload] = sets
        print(f"{workload}: {args.runs} runs x {args.sets} set(s)")
        print(f"  {'metric':14} {'unit':5} {'median':>11} {'q1':>11} {'q3':>11}"
              f" {'spread':>8} {'bound':>6}" + ("  shift" if args.sets == 2 else ""))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in sets[0]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s":
                flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            row = (f"  {name:14} {metric['unit']:5} {med:11.5g} {q1:11.5g} {q3:11.5g}"
                   f" {spread:8.3f} {bound:6.2f} {flag:2}")
            if args.sets == 2:
                med2 = statistics.median(r[name] for r in sets[1])
                worse = (med2 - med) / med * (1 if metric["better"] == "lower" else -1)
                row += f" {worse:+.3f}" + (" !!" if worse > bound else "")
                ok &= worse <= bound
            ok &= flag != "!!"
            print(row)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
