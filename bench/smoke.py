"""Smoke check of the benchmark harness at tiny sizes.

    python3 bench/smoke.py

Runs every workload with --smoke, untraced and traced, and checks that
each prints exactly the metrics BENCHMARK.json names, with their units.
Then checks that a corrupted golden digest fails the run, and that a
directory holding only the benchmark's own files fails without a result.
Exits 0 when every check holds.  Temporary files go to bench/out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return done.returncode, done.stdout.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = str(BENCH / "run.py")
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run([script, "--workload", workload, "--seed", "1", "--seconds", "1",
                               "--trace", str(trace), "--smoke"])
            result = json.loads(lines[-1]) if lines else {}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            if code != 0 or not result.get("correct") or got != want:
                errors.append(f"{workload} --trace {trace}: exit {code}, correct "
                              f"{result.get('correct')}, metric/unit mismatch "
                              f"{sorted(set(got.items()) ^ set(want.items()))}")
            print(f"{workload} --trace {trace}: exit {code}", flush=True)

    OUT.mkdir(exist_ok=True)
    golden = json.loads((BENCH / "golden.json").read_text())
    name = next(iter(golden))
    golden[name] = "0" * 64
    corrupted = OUT / "golden-corrupted.json"
    corrupted.write_text(json.dumps(golden))
    code, lines = run([script, "--workload", name, "--seed", "1", "--seconds", "1",
                       "--trace", "0", "--smoke", "--golden", str(corrupted)])
    if code == 0 or json.loads(lines[-1])["correct"]:
        errors.append(f"a corrupted golden digest for {name} did not fail the run")
    print(f"corrupted golden digest: exit {code}", flush=True)

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run([f"{BENCH.name}/run.py", "--workload", name, "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or lines:
        errors.append(f"a checkout without the library gave exit {code} and {len(lines)} lines")
    print(f"checkout without the library: exit {code}", flush=True)

    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
