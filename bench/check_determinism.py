#!/usr/bin/env python3
"""Check that every count metric repeats exactly.

    python3 bench/check_determinism.py

For every workload in ``BENCHMARK.json``, runs ``run.py`` timed and
traced under two ``PYTHONHASHSEED`` values and requires identical values
for every metric with unit ``count``.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
SECONDS = "2"


def run(workload: str, trace: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        checked = 0
        for trace in (0, 1):
            a, b = run(workload, trace, "1"), run(workload, trace, "2")
            diff = sorted(k for k in a if a[k] != b.get(k))
            if diff:
                bad += 1
                print(f"{workload} trace={trace}: differs across hash seeds: {diff}")
            checked += len(a)
        print(f"{workload}: {checked} count metrics checked")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
