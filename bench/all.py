"""Run every workload once and print each end-to-end metric with its unit.

    python3 bench/all.py --seed N --seconds S [--trace]

One run.py process per workload, one after another.  Prints a line per
metric (workload, name, value, unit), including failed_frac, and exits 1
if any run failed its correctness checks.  With --trace, each workload's
traced run follows its untraced one and its per-layer metrics are printed
too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or len(lines) < 2:
                failed = True
                print(f"{workload}\tFAILED\texit {done.returncode}")
                if len(lines) < 2:
                    continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            metrics = dict(result["metrics"])
            if not trace:
                metrics["failed_frac"] = info["failed_frac"]
            for name, m in metrics.items():
                print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
