"""gatekeeper benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload portal-read --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout that holds ``src/`` and ``tests/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run plus the
tracing overhead.  The line before it is a report with provenance, sample
counts, ``fail_ratio`` and every failed operation.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    # name: (world shape, how the program is driven)
    "portal-read": ("2k", "http"),
    "admin-churn": ("2k", "http-admin"),
    "cli-cold": ("10k", "cli"),
}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "menu_p50_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "audit_p50_ms": "ms",
    "rss_mb": "MiB",
}


def end_to_end(result) -> dict[str, float]:
    by_class: dict[str, list[float]] = {"check": [], "menu": [], "write": [], "audit": []}
    for op in result.ops:
        by_class[op.cls].append(op.ms)
    missing = [cls for cls, values in by_class.items() if len(values) < 2]
    if missing:
        raise RuntimeError(f"too few samples for {missing}; run longer")
    return {
        "setup_s": statistics.median(result.setup_s),
        "ops_per_s": result.ops_per_s,
        "check_p50_ms": statistics.median(by_class["check"]),
        "check_p90_ms": tracer.percentile(by_class["check"], 90),
        "menu_p50_ms": statistics.median(by_class["menu"]),
        "write_p50_ms": statistics.median(by_class["write"]),
        "write_p90_ms": tracer.percentile(by_class["write"], 90),
        "audit_p50_ms": statistics.median(by_class["audit"]),
        "rss_mb": result.rss_mb,
    }


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


def _filesystem(path: Path) -> str:
    """Filesystem type and source of the mount holding ``path``."""
    best, found = "", "unknown"
    for line in Path("/proc/self/mountinfo").read_text().splitlines():
        left, _, right = line.partition(" - ")
        mount_point = left.split()[4]
        if str(path).startswith(mount_point) and len(mount_point) > len(best):
            fstype, source = right.split()[:2]
            best, found = mount_point, f"{fstype} on {source}"
    return found


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": (
            f"{os.cpu_count()}-vCPU virtual machine; HTTP over loopback; store and audit files on "
            f"{_filesystem(ROOT)}, mostly served from the page cache, not a dedicated disk device"
        ),
    }


def _failures(passes) -> list[dict]:
    return [
        {"op": op.name, "request": op.req_id, "problem": op.problem}
        for result in passes
        for op in result.ops
        if op.problem
    ]


def _samples(result) -> dict[str, int]:
    counts: dict[str, int] = {}
    for op in result.ops:
        counts[op.cls] = counts.get(op.cls, 0) + 1
    return counts


def _run_pass(workload: str, world, work, seconds: float, traced: bool, setups: int):
    import workloads

    kind = WORKLOADS[workload][1]
    if kind == "cli":
        return workloads.cli_pass(world, work, seconds, traced, setups)
    return workloads.http_pass(world, work, seconds, admin=kind == "http-admin", traced=traced, spawns=setups)


def per_layer(workload: str, plain, traced) -> dict[str, float]:
    spans, wchar = tracer.load_spans(traced.span_files)
    ops = len(traced.ops)
    if WORKLOADS[workload][1] == "cli":
        # A CLI child's bytes written are only readable from inside it, so
        # they come from the traced children.
        metrics = tracer.analyze(spans, ops, {}, [op.ms for op in traced.ops])
        metrics["server.wchar_per_op"] = wchar / ops
    else:
        metrics = tracer.analyze(spans, ops, {op.req_id: op.ms for op in traced.ops}, [])
        metrics["server.wchar_per_op"] = plain.wchar / plain.window_ops
    metrics["server.cpu_ms_per_op"] = plain.cpu_s * 1000.0 / plain.window_ops
    metrics["trace.ops_per_s"] = traced.ops_per_s
    metrics["trace.untraced_ops_per_s"] = plain.ops_per_s
    metrics["trace.overhead_pct"] = (1.0 - traced.ops_per_s / plain.ops_per_s) * 100.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--world", choices=["tiny", "2k", "10k"],
                        help="override the workload's world (the self-test uses 'tiny')")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gatekeeper").is_dir() or not (ROOT / "tests" / "reference.py").is_file():
        print(f"error: {ROOT} lacks src/gatekeeper or tests/reference.py; run inside a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads
    import world as worlds

    world = worlds.generate(args.seed, args.world or WORKLOADS[args.workload][0])
    base = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work = workloads.Workdir(base, world)
    try:
        if args.trace:  # half the window each, so a traced run costs what an untraced one does
            plain = _run_pass(args.workload, world, work, args.seconds / 2, traced=False, setups=1)
            traced = _run_pass(args.workload, world, work, args.seconds / 2, traced=True, setups=1)
            passes = [plain, traced]
            values, units = per_layer(args.workload, plain, traced), tracer.metric_units()
        else:
            setups = workloads.CLI_SETUP_RUNS if WORKLOADS[args.workload][1] == "cli" else workloads.SETUP_SPAWNS
            plain = _run_pass(args.workload, world, work, args.seconds, traced=False, setups=setups)
            passes = [plain]
            values, units = end_to_end(plain), END_TO_END
    finally:
        shutil.rmtree(base, ignore_errors=True)

    cli = WORKLOADS[args.workload][1] == "cli"
    attempted = sum(len(p.ops) for p in passes)
    failures = _failures(passes)
    report = {
        "report": provenance(args),
        "samples": [_samples(p) for p in passes],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:50],
        "server": {
            "wchar_per_op": None if cli else plain.wchar / plain.window_ops,
            "cpu_ms_per_op": plain.cpu_s * 1000.0 / plain.window_ops,
        },
    }
    for failure in failures[:50]:
        print(f"FAILED {failure['op']} [{failure['request']}]: {failure['problem']}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
