"""The summary that ``bench/record.py`` writes from alternating parent/change
pairs of perfbench runs, on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def side(**values):
    return {"correct": True, "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


def pair(seed, parent, change, workload="w"):
    return {"workload": workload, "seed": seed, "parent": side(**parent), "change": side(**change)}


def test_summary_of_three_pairs():
    pairs = [
        pair(1, {"peak": 100.0, "rate": 10.0}, {"peak": 70.0, "rate": 12.0}),
        pair(2, {"peak": 102.0, "rate": 11.0}, {"peak": 72.0, "rate": 11.0}),
        pair(3, {"peak": 98.0, "rate": 12.0}, {"peak": 75.0, "rate": 9.0}),
    ]
    out = record.summarize(pairs, {"peak": "lower", "rate": "higher"})
    assert sorted(out) == ["w"] and sorted(out["w"]) == ["peak", "rate"]
    peak, rate = out["w"]["peak"], out["w"]["rate"]
    assert peak["parent"] == {"median": 100.0, "q1": 99.0, "q3": 101.0}
    assert peak["change"] == {"median": 72.0, "q1": 71.0, "q3": 73.5}
    assert peak["ratios"] == pytest.approx([0.7, 72 / 102, 75 / 98])
    assert peak["ratio_median"] == pytest.approx(72 / 102)
    assert (peak["better"], peak["wins"], peak["pairs"]) == ("lower", 3, 3)
    # a tie (pair 2) wins nothing, and a lower rate loses
    assert (rate["better"], rate["wins"], rate["pairs"]) == ("higher", 1, 3)
    assert rate["ratios"] == pytest.approx([1.2, 1.0, 0.75])
    assert rate["ratio_median"] == pytest.approx(1.0)


def test_one_pair_per_workload_and_a_zero_parent():
    pairs = [pair(1, {"fails": 0.0}, {"fails": 0.0}, "a"),
             pair(1, {"fails": 2.0}, {"fails": 1.0}, "b")]
    out = record.summarize(pairs, {"fails": "lower"})
    a, b = out["a"]["fails"], out["b"]["fails"]
    assert a["ratios"] == [None] and a["ratio_median"] is None and a["wins"] == 0
    assert a["parent"] == a["change"] == {"median": 0.0, "q1": 0.0, "q3": 0.0}
    assert b["ratios"] == [0.5] and b["wins"] == 1
    assert b["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
