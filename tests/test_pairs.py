"""The pairing driver's rules, pinned on synthetic runs: ``tools/pairs.py``
imports only the standard library, so it is loaded here by path."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def runs(name, parent, change):
    """The rows of one pair per (parent, change) value of metric ``name``,
    in ``pairs.RUN_FIELDS`` order; every other metric reads 1 on both sides."""
    column = pairs.RUN_FIELDS.index(name)
    rows = []
    for seed, values in enumerate(zip(parent, change), 1):
        for side, value in zip(("parent", "change"), values):
            row = [seed, side, side == "parent", 100, 0, *[1.0] * len(pairs.METRICS)]
            row[column] = value
            rows.append(row)
    return rows


@pytest.mark.parametrize("change, expected", [
    (0.05, "worse past its bound"),
    (0.0, "within bound"),
])
def test_a_metric_from_a_zero_median_is_worse_past_its_bound_if_it_rises_at_all(
        change, expected):
    metric = pairs.summary(runs("error_rate", [0.0] * 10, [change] * 10), "error_rate")
    assert pairs.verdict("error_rate", metric) == expected
    # the summary goes into the --out file, which must stay valid JSON
    json.dumps(metric, allow_nan=False)


def test_a_spread_wider_than_the_bound_is_unresolved():
    # wall_s has a bound of 0.2; 8 and 12 alternating spread 0.4 of the median 10
    wide = [8.0, 12.0] * 5
    assert pairs.verdict("wall_s", pairs.summary(runs("wall_s", wide, wide), "wall_s")) \
        == "unresolved"
    tight = [9.9, 10.1] * 5
    assert pairs.verdict("wall_s", pairs.summary(runs("wall_s", tight, wide), "wall_s")) \
        == "unresolved"
    assert pairs.verdict("wall_s", pairs.summary(runs("wall_s", tight, tight), "wall_s")) \
        == "within bound"


# the parent's runs 100..109 ms have quartiles 102.25 and 106.75, an IQR of 4.5 ms
PARENT = [100.0 + i for i in range(10)]


@pytest.mark.parametrize("change, met", [
    ([p - 10 for p in PARENT], True),  # lower in 10 of 10 pairs, by 10 ms
    ([p - 2 for p in PARENT], False),  # lower in 10 of 10 pairs, by less than the IQR
    ([p - 10 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]], False),  # lower in 8
    ([p - 10 for p in PARENT[:9]] + [p + 1 for p in PARENT[9:]], True),  # lower in 9
])
def test_a_gain_needs_nine_of_ten_pairs_and_a_median_gap_above_the_parents_iqr(change, met):
    metric = pairs.summary(runs("call_p50_ms", PARENT, change), "call_p50_ms")
    assert pairs.gain(metric, True, len(PARENT))["met"] is met


def test_the_revision_runs_first_in_even_pairs():
    assert [pairs.sides(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent"),
    ]


@pytest.mark.parametrize("correct, failed, code", [
    (True, 0, 0),
    (False, 0, 1),
    (True, 1, 1),
])
def test_a_run_that_reads_incorrect_or_fails_a_call_fails_the_comparison(
        monkeypatch, correct, failed, code):
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {name: {"value": 1.0} for name in pairs.METRICS}}
    monkeypatch.setattr(pairs, "write_trees", lambda rev, scratch: {"parent": scratch,
                                                                     "change": scratch})
    monkeypatch.setattr(pairs, "bench", lambda tree, workload, seed, seconds: result)
    monkeypatch.setattr(sys, "argv", ["pairs.py", "HEAD", "--pairs", "1", "--workload",
                                      "packing"])
    assert pairs.main() == code
