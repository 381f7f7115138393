"""Interleaved parent/change benchmark pairs, written to a new BENCH_<n>.json.

    python3 tools/pairs.py --base HEAD~1 --pairs 10 [--workload portal-read]

The change is this checkout's HEAD commit; a checkout with uncommitted
changes to tracked files is refused, so the output names the code it
measured.  Both sides run ``bench/run.py`` from a ``git archive`` export of
their commit into a fresh directory, so no side reads a bytecode cache the
other lacks.  Every run gets ``PYTHONDONTWRITEBYTECODE=1`` and lasts
BENCHMARK.json's ``run_seconds``.  Every workload BENCHMARK.json lists runs,
or only ``--workload``.  Pair ``i`` uses seed ``FIRST_SEED + i`` on both
sides, and the side that runs first alternates.  The output, the next free
``BENCH_<n>.json`` in the checkout, holds the machine, both revisions, every
run's metrics and ``fail_ratio``, and per side the median and the
interquartile range (IQR) of each metric, plus the ratio of the medians, how
many pairs the change won, and whether a metric moved the wrong way by more
than its BENCHMARK.json ``bound``; one line per metric is printed as well.
Exports live under ``.pairs_work/`` and are removed at the end.
Standard library only.
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
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 41


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def _export_rev(rev: str, dest: Path) -> None:
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
            archive.extractall(dest, filter="data")
    if proc.returncode:
        raise SystemExit(f"git archive {rev} failed")


def _machine() -> dict:
    info = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
    for path, key, field in (("/proc/cpuinfo", "cpu", "model name"), ("/proc/meminfo", "memory", "MemTotal")):
        try:
            lines = Path(path).read_text().splitlines()
        except OSError:
            continue
        info[key] = next((line.split(":", 1)[1].strip() for line in lines if line.startswith(field)), "unknown")
    return info


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise SystemExit(f"bench/run.py failed in {tree} (exit {done.returncode}):\n{done.stderr[-2000:]}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": seed,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "fail_ratio": report["fail_ratio"],
        "attempted": result["attempted"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], rules: dict[str, dict]) -> dict:
    """Per metric: each side's median and IQR, and ``ratio``, the change's
    median over the base's.  For a metric with a rule (a BENCHMARK.json
    ``end_to_end`` entry), also the pairs the change won and
    ``beyond_bound``: whether the metric moved the wrong way by more than
    the rule's ``bound``."""
    summary = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        entry = {"base": _spread(base), "change": _spread(change)}
        base_median = entry["base"]["median"]
        entry["ratio"] = entry["change"]["median"] / base_median if base_median else None
        if name in rules:
            rule = rules[name]
            sign = 1 if rule["better"] == "higher" else -1
            entry["better"] = rule["better"]
            entry["change_won"] = sum(sign * (c - b) > 0 for b, c in zip(base, change))
            entry["beyond_bound"] = entry["ratio"] is not None and sign * (entry["ratio"] - 1) < -rule["bound"]
        summary[name] = entry
    summary["fail_ratio"] = {side: max(p[side]["fail_ratio"] for p in pairs) for side in ("base", "change")}
    return summary


def report_lines(workload: str, summary: dict, pairs: int) -> list[str]:
    """One line per metric: both medians, the ratio, the pairs won, and
    whether the move is beyond its bound."""
    lines = []
    for name, entry in summary.items():
        if name == "fail_ratio":
            lines.append(f"{workload} fail_ratio: {entry['base']} -> {entry['change']}")
            continue
        ratio = "n/a" if entry["ratio"] is None else f"x{entry['ratio']:.3f}"
        line = f"{workload} {name}: {entry['base']['median']:.4g} -> {entry['change']['median']:.4g} ({ratio}"
        if "change_won" in entry:
            line += f", won {entry['change_won']}/{pairs}"
        line += ")"
        if entry.get("beyond_bound"):
            line += " BEYOND BOUND"
        lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", choices=names, help="run only this workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if _git("status", "--porcelain", "--untracked-files=no").strip():
        raise SystemExit("the checkout has uncommitted changes; commit them so the results name what they measured")

    revisions = {
        "base": _git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip(),
        "change": _git("rev-parse", "HEAD").strip(),
    }
    seconds = bench["run_seconds"]
    rules = {m["name"]: m for m in bench["end_to_end"]}
    workloads = {}
    (ROOT / ".pairs_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".pairs_work"))
    try:
        trees = {side: work / side for side in revisions}
        for side, revision in revisions.items():
            _export_rev(revision, trees[side])
        for workload in [args.workload] if args.workload else names:
            pairs = []
            for i in range(args.pairs):
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = _run(trees[side], workload, FIRST_SEED + i, seconds)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"ops_per_s {pair[side]['metrics'].get('ops_per_s')}", file=sys.stderr)
                pairs.append(pair)
            workloads[workload] = {"pairs": pairs, "summary": summarize(pairs, rules)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    out = ROOT / f"BENCH_{n}.json"
    payload = {"machine": _machine(), **revisions, "seconds": seconds, "workloads": workloads}
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for workload, result in workloads.items():
        print("\n".join(report_lines(workload, result["summary"], len(result["pairs"]))))
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
