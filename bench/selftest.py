"""Smoke test of the benchmark itself, on the tiny world.

    python3 bench/selftest.py

Runs every workload briefly, cli-cold included, untraced and traced.  It
asserts that each end-to-end and per-layer metric listed in BENCHMARK.json
is emitted with its unit, that the report carries ``fail_ratio`` and
provenance, and that a directory holding only the benchmark refuses to
run.  It checks the benchmark's output shape, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_workload(workload: str, trace: int) -> None:
    done = run("--workload", workload, "--seed", "7", "--seconds", "12", "--trace", str(trace), "--world", "tiny")
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr[-2000:]}"
    report_line, result_line = done.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, f"{workload}: end-to-end metric {name} is {metric['value']}"

    assert report["fail_ratio"] == result["failed"] / result["attempted"]
    for key in ("python", "nproc", "git_revision", "seed", "environment"):
        assert key in report["report"], key
    print(f"ok {workload} trace={trace}: {result['attempted']} ops, fail_ratio {report['fail_ratio']}")


def check_bare_directory() -> None:
    """With only BENCHMARK.json and the benchmark's files, it must refuse."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run("--workload", "portal-read", "--seed", "1", "--seconds", "1", cwd=bare)
        assert done.returncode != 0, "benchmark ran without the program"
        assert '"metrics"' not in done.stdout, "benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory refused")


def main() -> int:
    # cli-cold is not gated in BENCHMARK.json but reports the same metrics.
    names = [w["name"] for w in SPEC["workloads"]] + ["cli-cold"]
    for workload in names:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
