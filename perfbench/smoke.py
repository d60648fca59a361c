"""Smoke test of the benchmark itself: every workload at a tiny size (those
in BENCHMARK.json and any other that run.py accepts), traced and untraced,
plus a run without the program's sources.

    python3 perfbench/smoke.py

It asserts that each run prints the result object the benchmark promises,
that every metric named in BENCHMARK.json is emitted with its unit, that
the untraced run contains no wrapper, and that the traced run restores
every wrapped callable.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = json.loads(lines[-2])["diagnostics"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, diag["failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, (sorted(set(wanted) ^ set(got)), workload, trace)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    if trace:
        assert diag["wrapped"] > 0 and diag["wrappers_after_uninstall"] == 0, diag
    else:
        assert diag["wrappers_during_run"] == 0, diag


def check_without_sources() -> None:
    """With only BENCHMARK.json and the benchmark's files present, the run
    must fail without printing a result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = run(bare, "sweep", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    for workload in listed + sorted(set(WORKLOADS) - set(listed)):
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok {workload} trace={trace}")
    check_without_sources()
    print("ok without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
