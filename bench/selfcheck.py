"""Smoke-size self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs every workload at smoke size (verify at degree 8, the sweep to 16,
coeffs at K = 64, zeros at degree 64), each in its own process, with
tracing off and on. Asserts that the run is correct, that its last line
is the result object, and that every metric BENCHMARK.json names is
printed with its unit. Then checks that the benchmark refuses to run in
a directory holding only BENCHMARK.json and bench/. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(name: str, trace: int) -> None:
    proc = run(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                "--size", "smoke"], ROOT)
    assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{name} trace {trace}:\n{proc.stdout}"
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, set(metrics) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    print(f"ok  {name:6s} trace={trace} attempted={result['attempted']} failed={result['failed']}")


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    try:
        proc = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"ok  refuses without src/: exit {proc.returncode}")


def main() -> int:
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_workload(workload["name"], trace)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
