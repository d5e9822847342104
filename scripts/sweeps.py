"""Wall time and record digest of the fixed CLI sweeps, written to BENCH_sweeps.json.

Usage, from any directory:

    python3 scripts/sweeps.py

Each sweep runs `python -m tokengraphs <argv> --json` in a fresh interpreter
on this checkout's `src/`, three times one after another.  For each it
records the least wall time (interpreter start included), the sha256 of its
output and the number of records, and beside them the Python version, the
number of usable cores and the git revision of the code measured, with
whether `src/` differed from that revision.  The file is rewritten at the
root of the checkout, so each commit can carry the numbers of its own code.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
SWEEPS = [
    "theorem --n-max 9",
    "theorem --n-max 10",
    "theorem --n-max 12",
    "paths --n-max 8",
    "hfamily --m-min 4 --m-max 6",
]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def measure(argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    walls, digests = [], set()
    for _ in range(RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tokengraphs", *argv.split(), "--json"],
                              env=env, capture_output=True, check=True)
        walls.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(proc.stdout).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"{argv}: runs gave different output")
    return {"argv": argv, "wall_s_min": round(min(walls), 4),
            "wall_s": [round(w, 4) for w in walls], "sha256": digests.pop(),
            "records": proc.stdout.count(b"\n")}


def main() -> None:
    result = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_revision": git("rev-parse", "HEAD"),
        "src_differs_from_revision": bool(git("status", "--porcelain", "--", "src")),
        "runs": RUNS,
        "sweeps": [],
    }
    for argv in SWEEPS:
        row = measure(argv)
        print(f"{row['argv']:32} {row['wall_s_min']:8.3f} s  {row['sha256'][:16]}", flush=True)
        result["sweeps"].append(row)
    (ROOT / "BENCH_sweeps.json").write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
