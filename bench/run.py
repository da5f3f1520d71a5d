"""Benchmark runner for arrowwalk.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Every run first checks the workload's golden chunk (default seed, full size)
against the SHA-256 digest in `golden.json`.  Then:

  --trace 0  runs chunks of the workload for S seconds, untraced, with
             fresh interpreters timing the set-up spread between them, and
             reports steps_per_s (all steps over all host-normalised job
             time), peak_rss_mb and setup_s (median normalised set-up).
  --trace 1  runs a fixed number of chunks once untraced and twice traced,
             requires byte-identical reports and exactly repeated counts, and
             reports the per-layer metrics of the first traced pass, with
             times host-normalised like steps_per_s.  Its
             spans are written to bench/out/<workload>.spans.tsv.gz.

Every report is checked: a statement check reporting fail, a trial error or
a malformed report fails the run.  The last line of stdout is one JSON
object {correct, attempted, failed, metrics}; the line before it records the
machine, the measured source and the workload's configuration.  The exit code
is 0 when the run is correct, 1 when it is not, 2 on a usage error or when
the checkout holds no library to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from hashlib import blake2b
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 11

# Host speed on a shared machine drifts by tens of percent within seconds,
# in CPU time as much as in wall time.  A fixed pure-Python loop, timed
# before and after every job, measures that drift; each job's wall time is
# divided by the calibration time over CALIBRATION_REFERENCE_S.  Normalised
# figures therefore read as if the host ran the loop in exactly that time,
# which is about its median on the 2-core Xeon the benchmark was tuned on.
CALIBRATION_ITERATIONS = 20_000
CALIBRATION_REFERENCE_S = 0.013
_CALIBRATION_KEY = b"arrowwalk-bench-calibration-key!"

# Set-up is normalised by fresh interpreters importing these modules, a
# start-up of about the same size as the library's that uses none of it.
# Normalised set-up times read as if that reference took STARTUP_REFERENCE_S.
_STARTUP_REFERENCE = (
    "import argparse, concurrent.futures, dataclasses, fractions, hashlib, json, "
    "multiprocessing, pathlib, statistics, typing"
)
STARTUP_REFERENCE_S = 0.1

# A fresh interpreter pays this on every CLI call: the package and CLI
# imports plus building the workload's first chunk of configs.
_SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import arrowwalk, arrowwalk.cli, workloads; "
    "workloads.WORKLOADS[sys.argv[3]].jobs(int(sys.argv[4]), 0)"
)


def calibration_s() -> float:
    """Wall time of a fixed walk over a memoized keyed-hash field: the same
    mix of dict, integer and blake2b work as the library, but none of its
    code, so no change to the library can move it."""
    key = _CALIBRATION_KEY
    pos = 0
    visits = {0: 1}
    memo: dict = {}
    started = time.perf_counter()
    for _ in range(CALIBRATION_ITERATIONS):
        k = visits[pos]
        cell = (pos, k >> 3)
        block = memo.get(cell)
        if block is None:
            block = memo[cell] = blake2b(repr(cell).encode(), key=key, digest_size=64).digest()
        pos += 1 if block[k & 7] < 140 else -1
        visits[pos] = visits.get(pos, 0) + 1
    return time.perf_counter() - started


class HostSpeed:
    """Turns wall times into normalised times, one interval at a time."""

    def __init__(self):
        self._last = calibration_s()
        self.samples = [self._last]

    def normalise(self, elapsed: float) -> float:
        """Scale an interval that ended just now by the mean of the
        calibrations taken just before and just after it."""
        now = calibration_s()
        self.samples.append(now)
        factor = (self._last + now) / (2.0 * CALIBRATION_REFERENCE_S)
        self._last = now
        return elapsed / factor


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


class SetupProbe:
    """Fresh interpreters doing the set-up, timed one at a time so that a
    run can spread them over its measuring window.

    Start-up does not track the calibration loop: it is process creation,
    file lookups and module execution.  So each probe runs between two
    reference interpreters that import a fixed set of standard-library
    modules, and its wall time is divided by their mean over
    STARTUP_REFERENCE_S.  No change to the library can move the reference.
    One untimed run of each first leaves the bytecode caches warm."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, "-I", "-c", _SETUP_PROBE, str(SRC), str(BENCH),
                    workload, str(seed)]
        self.reference_cmd = [sys.executable, "-I", "-c", _STARTUP_REFERENCE]
        subprocess.run(self.reference_cmd, check=True)
        subprocess.run(self.cmd, check=True)
        self.walls: list[float] = []
        self.times: list[float] = []

    @staticmethod
    def _time(cmd: list[str]) -> float:
        started = time.perf_counter()
        subprocess.run(cmd, check=True)
        return time.perf_counter() - started

    def run(self) -> None:
        before = self._time(self.reference_cmd)
        elapsed = self._time(self.cmd)
        after = self._time(self.reference_cmd)
        self.walls.append(elapsed)
        self.times.append(elapsed / ((before + after) / 2.0) * STARTUP_REFERENCE_S)


class Tally:
    """Attempted and failed trials, and every problem seen, over a run."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_chunk(self, jobs) -> tuple[list[str], float, float]:
        """Run one chunk; return its report texts, its wall time and its
        normalised time."""
        texts = []
        failed = []
        wall = normalised = 0.0
        for job in jobs:
            started = time.perf_counter()
            text, bad = job.run()
            elapsed = time.perf_counter() - started
            wall += elapsed
            normalised += self.host.normalise(elapsed)
            texts.append(text)
            failed.append(bad)
        for job, text, bad in zip(jobs, texts, failed):
            problems = job.problems(text)
            self.problems.extend(problems)
            self.attempted += job.trials
            self.failed += job.trials if problems and not bad else bad
        return texts, wall, normalised


def check_golden(workloads, name: str, golden_path: Path, tally: Tally) -> None:
    recorded = json.loads(golden_path.read_text()).get(name)
    jobs = workloads.WORKLOADS[name].jobs(workloads.DEFAULT_SEED, 0)
    texts, _, _ = tally.run_chunk(jobs)
    got = workloads.digest(texts)
    if got != recorded:
        tally.problems.append(
            f"golden digest mismatch for {name} at seed {workloads.DEFAULT_SEED}: "
            f"recorded {recorded}, got {got}")
        tally.failed += sum(job.trials for job in jobs)


def measure(workloads, name: str, seed: int, seconds: float, tiny: bool, tally: Tally,
            setup: SetupProbe) -> dict:
    """Run chunks for `seconds`, with SETUP_RUNS set-up probes spread evenly
    between them."""
    workload = workloads.WORKLOADS[name]
    steps = []
    walls = []
    normalised = []
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        if time.perf_counter() >= started + len(setup.times) * seconds / SETUP_RUNS:
            setup.run()
        jobs = workload.jobs(seed, len(steps), tiny)
        _, wall, norm = tally.run_chunk(jobs)
        steps.append(sum(job.steps for job in jobs))
        walls.append(wall)
        normalised.append(norm)
        if time.perf_counter() >= deadline:
            break
    while len(setup.times) < SETUP_RUNS:
        setup.run()
    return {
        "steps_per_s": sum(steps) / sum(normalised),
        "wall_steps_per_s": sum(steps) / sum(walls),
        "chunks": len(steps),
    }


def traced(workloads, spans, name: str, seed: int, tiny: bool, tally: Tally) -> dict:
    workload = workloads.WORKLOADS[name]
    chunks = [workload.jobs(seed, i, tiny) for i in range(workload.trace_chunks)]
    expected_steps = sum(job.steps for jobs in chunks for job in jobs)

    def one_pass(tracer):
        """Report texts, wall time and normalised time of one pass."""
        texts, wall, normalised = [], 0.0, 0.0
        if tracer:
            tracer.install()
        try:
            for jobs in chunks:
                got, elapsed, norm = tally.run_chunk(jobs)
                texts.extend(got)
                wall += elapsed
                normalised += norm
        finally:
            if tracer:
                tracer.uninstall()
        return texts, wall, normalised

    plain_texts, _, plain_norm = one_pass(None)
    first = spans.Tracer()
    first_texts, first_wall, first_norm = one_pass(first)
    metrics = first.metrics(first_wall, first_norm / plain_norm - 1.0, first_norm / first_wall)
    OUT.mkdir(exist_ok=True)
    first.write(OUT / f"{name}.spans.tsv.gz")
    del first
    second = spans.Tracer()
    second_texts, second_wall, _ = one_pass(second)
    repeat = second.metrics(second_wall, 0.0)
    del second

    if not plain_texts == first_texts == second_texts:
        tally.problems.append("traced reports differ from the untraced reports")
    for key in spans.EXACT_COUNTS:
        if metrics[key][0] != repeat[key][0]:
            tally.problems.append(
                f"{key} did not repeat: {metrics[key][0]} then {repeat[key][0]}")
    if metrics["walk.steps"][0] != expected_steps:
        tally.problems.append(
            f"traced walk.steps {metrics['walk.steps'][0]} != {expected_steps} from the configs")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny chunks, to check the harness rather than measure")
    parser.add_argument("--golden", type=Path, default=BENCH / "golden.json",
                        help="file of recorded golden digests")
    args = parser.parse_args(argv)

    if not (SRC / "arrowwalk" / "__init__.py").is_file():
        print(f"error: no library to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arrowwalk
    import spans
    import workloads

    if Path(arrowwalk.__file__).resolve().parent != SRC / "arrowwalk":
        print(f"error: imported arrowwalk from {arrowwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    host = HostSpeed()
    tally = Tally(host)
    check_golden(workloads, args.workload, args.golden, tally)
    info: dict = {}
    if args.trace:
        metrics = traced(workloads, spans, args.workload, args.seed, args.smoke, tally)
    else:
        setup = SetupProbe(args.workload, args.seed)
        measured = measure(workloads, args.workload, args.seed, args.seconds, args.smoke, tally,
                           setup)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "steps_per_s": (measured.pop("steps_per_s"), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup.times), "s"),
        }
        info.update(measured, setup_wall_s=statistics.median(setup.walls))

    correct = not tally.problems and tally.failed == 0
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    info.update({
        "workload": args.workload,
        "config": workloads.WORKLOADS[args.workload].config,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "failed_frac": {"value": tally.failed / max(tally.attempted, 1), "unit": "frac"},
        "calibration_s_median": statistics.median(host.samples),
        "machine": machine_info(),
    })
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
