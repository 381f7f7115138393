"""The pair runner's summary: medians, ratios and bounds."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

RULES = {
    "ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    "rss_mb": {"name": "rss_mb", "better": "lower", "bound": 0.1},
}


def run(**metrics):
    return {"fail_ratio": 0.0, "metrics": metrics}


def make_pairs(*rows):
    """One pair per row of ((base ops, base rss), (change ops, change rss))."""
    return [
        {"base": run(ops_per_s=b[0], rss_mb=b[1], depth=1.0), "change": run(ops_per_s=c[0], rss_mb=c[1], depth=2.0)}
        for b, c in rows
    ]


def test_medians_ratios_and_wins():
    summary = pairs.summarize(make_pairs(((10, 100), (20, 100)), ((12, 100), (9, 100)), ((14, 100), (30, 100))), RULES)
    ops = summary["ops_per_s"]
    assert (ops["base"]["median"], ops["change"]["median"]) == (12, 20)
    assert ops["ratio"] == pytest.approx(20 / 12)
    assert ops["change_won"] == 2
    assert ops["beyond_bound"] is False
    assert summary["rss_mb"]["change_won"] == 0  # a tie is not a win
    assert summary["depth"]["ratio"] == 2.0
    assert "beyond_bound" not in summary["depth"]  # no rule, no bound
    assert summary["fail_ratio"] == {"base": 0.0, "change": 0.0}


@pytest.mark.parametrize(
    "base, change, beyond",
    [
        ((100, 50), (76, 50), False),  # higher is better: -24% is inside a 25% bound
        ((100, 50), (74, 50), True),
        ((100, 50), (500, 50), False),  # a gain is never beyond the bound
        ((100, 50), (100, 54.9), False),  # lower is better: +9.8% is inside a 10% bound
        ((100, 50), (100, 55.1), True),
        ((100, 50), (100, 10), False),
    ],
)
def test_beyond_bound_is_a_move_the_wrong_way_past_the_bound(base, change, beyond):
    summary = pairs.summarize(make_pairs((base, change)), RULES)
    moved = "ops_per_s" if base[0] != change[0] else "rss_mb"
    assert summary[moved]["beyond_bound"] is beyond
    assert any(line.endswith("BEYOND BOUND") for line in pairs.report_lines("w", summary, 1)) is beyond


def test_a_zero_base_median_has_no_ratio():
    summary = pairs.summarize(make_pairs(((0, 50), (5, 50))), RULES)
    assert summary["ops_per_s"]["ratio"] is None
    assert summary["ops_per_s"]["beyond_bound"] is False


def test_one_report_line_per_metric():
    summary = pairs.summarize(make_pairs(((10, 100), (20, 90))), RULES)
    lines = pairs.report_lines("portal-read", summary, 1)
    assert lines == [
        "portal-read ops_per_s: 10 -> 20 (x2.000, won 1/1)",
        "portal-read rss_mb: 100 -> 90 (x0.900, won 1/1)",
        "portal-read depth: 1 -> 2 (x2.000)",
        "portal-read fail_ratio: 0.0 -> 0.0",
    ]
