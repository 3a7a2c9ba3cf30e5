"""Smoke self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

For every workload of the runner, including the two that BENCHMARK.json
does not list, it runs tiny inputs (--smoke) with
--trace 0 and --trace 1, and checks that every metric listed there is
printed with its unit and that all answers are correct. It runs each
workload once more with one expected value corrupted (--tamper) and checks
that the mismatch is counted as a failure. Last, it checks that the runner
exits non-zero and prints no result where src/zerosums is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path.cwd()
RUNNER = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(RUNNER + args, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--smoke"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(base + ["--trace", str(trace)])
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n"
                                f"{proc.stderr[-1000:]}")
                continue
            got = result(proc)
            units = {k: v["unit"] for k, v in got["metrics"].items()}
            want = {m["name"]: m["unit"] for m in bench[section]}
            if units != want:
                problems.append(f"{workload} trace {trace}: metrics {units} != {want}")
            if not all(isinstance(v["value"], (int, float)) for v in got["metrics"].values()):
                problems.append(f"{workload} trace {trace}: non-numeric value")
            if not got["correct"] or got["failed"] or got["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {got['failed']} of "
                                f"{got['attempted']} failed")
        got = result(run(base + ["--trace", "0", "--tamper"]))
        if got["correct"] or got["failed"] < 1:
            problems.append(f"{workload}: a wrong expected value was not counted")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("runner did not refuse a directory without src/zerosums")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
