"""The tokengraphs benchmark: timed CLI sweeps, each in a fresh interpreter.

    python3 perfbench/run.py --workload theorem-trees --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports tokengraphs from ./src.  Each
sweep is one `tokengraphs.cli.main` call in a new interpreter, because a user
pays the cold start on every CLI call.  Sweeps repeat until --seconds is
used up, set-up alone is sampled between them, and every sweep's output is
checked after its process has ended.  With --trace 0 the end-to-end metrics
are reported, as medians over the sweeps; with --trace 1 untraced and traced
sweeps alternate and the per-layer metrics of the traced ones are reported.
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import monotonic_ns as now

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".bench_out"
# set-up-only interpreters started after each sweep, for the setup_s median
SETUP_SAMPLES_PER_SWEEP = 2
SWEEP_TIMEOUT_S = 100
# per-layer metrics computed here rather than read from the tracer
DERIVED = ("families.hits.other", "cli.first_record_s", "cli.output_bytes", "trace.overhead_frac")


class Runner:
    """Starts sweep and set-up processes for one workload and seed."""

    def __init__(self, root: str, workdir: str, argv: list[str]):
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self.argv = argv
        self.count = 0

    def launch(self, setup_only: bool = False, trace: str | None = None) -> dict:
        """Run one child interpreter; return its measurements and output."""
        self.count += 1
        base = os.path.join(self.workdir, f"child{self.count}")
        spec = {
            "src": self.src,
            "argv": self.argv,
            "out": base + ".out",
            "meta": base + ".json",
            "trace": trace,
            "setup_only": setup_only,
        }
        with open(base + ".spec", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        spawned = now()
        proc = subprocess.Popen(
            [sys.executable, CHILD, base + ".spec"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=SWEEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
        try:
            with open(spec["meta"], encoding="utf-8") as fh:
                meta = json.load(fh)
            with open(spec["out"], encoding="utf-8") as fh:
                meta["text"] = fh.read()
        except (OSError, ValueError):
            meta = {"text": "", "code": None}
        meta["setup_s"] = (meta["t0"] - spawned) / 1e9 if "t0" in meta else None
        meta["stderr"] = err.decode(errors="replace")[-2000:]
        meta["exit"] = proc.returncode
        return meta


def run(workload, seed: int, seconds: float, trace: bool, root: str, workdir: str):
    """Sweep until seconds are used; return sweeps, set-up samples, checks."""
    runner = Runner(root, workdir, workload.prepare(seed, workdir))
    runner.launch(setup_only=True)  # compiles bytecode once, not timed
    trace_path = os.path.join(root, OUT_DIR, f"trace-{workload.name}-seed{seed}.jsonl")
    start = now()
    plain, traced, setups = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    while True:
        batch = [runner.launch()]
        if trace:
            batch.append(runner.launch(trace=trace_path))
        for sweep in batch:
            a, f, why = workload.check(sweep["text"], sweep.get("code"), seed)
            attempted += a
            failed += f
            if why:
                problems += why[:3] + [sweep["stderr"]] * bool(sweep["stderr"])
            sweep["done"] = "t1" in sweep and sweep["exit"] == 0
        plain.append(batch[0])
        traced += batch[1:]
        if not trace:
            for _ in range(SETUP_SAMPLES_PER_SWEEP):
                setups.append(runner.launch(setup_only=True)["setup_s"])
        used = (now() - start) / 1e9
        if used + used / len(plain) > seconds:
            break
    setups += [s["setup_s"] for s in plain]
    return plain, traced, [s for s in setups if s is not None], attempted, failed, problems


def wall_s(sweep: dict) -> float:
    return (sweep["t1"] - sweep["t0"]) / 1e9


def record_count(sweep: dict) -> int:
    """JSON record lines; the `#` summary lines follow them."""
    return sum(not line.startswith("#") for line in sweep["text"].splitlines())


def end_to_end(plain: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    good = [s for s in plain if s["done"]]
    gaps = []
    for s in good:
        records = s["stamps"][:record_count(s)]
        gaps += [(b - a) / 1e6 for a, b in zip(records, records[1:])]
    metrics = {
        "units_per_s": statistics.median([record_count(s) / wall_s(s) for s in good]),
        "unit_ms_p50": statistics.median(gaps),
        "unit_ms_p90": statistics.quantiles(gaps, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([s["maxrss_kb"] / 1024 for s in good]),
    }
    notes = [
        f"sweeps: {len(plain)} ({len(good)} completed), wall s: "
        + ", ".join(f"{wall_s(s):.3f}" for s in good),
        f"unit gaps: {len(gaps)} samples, "
        f"{sum(g > metrics['unit_ms_p90'] for g in gaps)} above p90",
        f"setup samples: {len(setups)}",
    ]
    return metrics, notes


def per_layer(plain: list[dict], traced: list[dict], names: list[str]) -> tuple[dict, list[str]]:
    good = [s for s in traced if s["done"]]
    metrics = {}
    for name in names:
        values = [s["layers"].get(name, 0) for s in good]
        metrics[name] = statistics.median(values)
    listed = set(names)
    metrics["families.hits.other"] = statistics.median([
        sum(v for k, v in s["layers"].items() if k.startswith("families.hits.") and k not in listed)
        for s in good
    ])
    metrics["cli.first_record_s"] = statistics.median(
        [(s["stamps"][0] - s["t0"]) / 1e9 for s in good])
    metrics["cli.output_bytes"] = good[-1]["output_bytes"]
    plain_wall = statistics.median([wall_s(s) for s in plain if s["done"]])
    metrics["trace.overhead_frac"] = statistics.median([wall_s(s) for s in good]) / plain_wall - 1
    notes = [f"traced sweeps: {len(good)}, untraced sweeps: {len(plain)}",
             f"self time of the last traced sweep (wall {wall_s(good[-1]):.3f} s):"]
    notes += ["  " + row for row in good[-1]["table"]]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tokengraphs", "cli.py")):
        print(f"error: no tokengraphs source under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    workdir = os.path.join(root, OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plain, traced, setups, attempted, failed, problems = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    needed = [plain, traced] if args.trace else [plain]
    if not all(any(s["done"] for s in sweeps) for sweeps in needed):
        print(f"error: no sweep of {args.workload} completed", file=sys.stderr)
        for line in problems[:12]:
            print(line, file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes = per_layer(plain, traced, [n for n in units if n not in DERIVED])
    else:
        metrics, notes = end_to_end(plain, setups)
    print(f"workload {args.workload} seed {args.seed}: {attempted} units attempted, "
          f"{failed} failed, failed_frac {failed / max(1, attempted)}")
    for line in notes + problems[:12]:
        print(line)
    for name, unit in units.items():
        print(f"{name:42} {metrics.get(name, float('nan')):>14.6g} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
