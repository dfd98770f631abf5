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
    out = record.summarize(pairs, {"peak": ("lower", 0.05), "rate": ("higher", 0.24)})
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
    out = record.summarize(pairs, {"fails": ("lower", 0.01)})
    a, b = out["a"]["fails"], out["b"]["fails"]
    assert a["ratios"] == [None] and a["ratio_median"] is None and a["wins"] == 0
    assert a["parent"] == a["change"] == {"median": 0.0, "q1": 0.0, "q3": 0.0}
    assert b["ratios"] == [0.5] and b["wins"] == 1
    assert b["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}


# ten parent runs of a lower-is-better metric: median 10.0, quartiles 9.9125
# and 10.0875, a relative quartile distance of 0.0175, inside a bound of 0.24
STEADY = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.05, 9.95]


def verdict(parent, change, better="lower", bound=0.24):
    pairs = [pair(k, {"m": old}, {"m": new}) for k, (old, new) in enumerate(zip(parent, change))]
    return record.summarize(pairs, {"m": (better, bound)})["w"]["m"]["verdict"]


def test_gain_takes_nine_of_ten_pairs_and_a_gap_beyond_the_quartiles():
    better = [v - 1.0 for v in STEADY]
    assert verdict(STEADY, better) == "gain"
    # one pair lost still leaves 9 of 10, and so does one tie
    assert verdict(STEADY, better[:-1] + [STEADY[-1] + 0.5]) == "gain"
    assert verdict(STEADY, better[:-1] + [STEADY[-1]]) == "gain"
    # two pairs tied claim nothing
    assert verdict(STEADY, better[:-2] + STEADY[-2:]) == "held"
    # all 10 pairs won, but the medians 0.15 apart, inside the quartile distance 0.175
    assert verdict(STEADY, [v - 0.15 for v in STEADY]) == "held"
    # a higher-is-better metric gains upwards
    assert verdict(STEADY, [v + 1.0 for v in STEADY], better="higher") == "gain"
    assert verdict(STEADY, better, better="higher") == "held"


def test_regression_is_a_median_worse_by_more_than_the_bound():
    assert verdict(STEADY, [v * 1.3 for v in STEADY]) == "regression"
    assert verdict(STEADY, [v * 1.2 for v in STEADY]) == "held"
    assert verdict(STEADY, [v * 0.7 for v in STEADY], better="higher") == "regression"
    # a parent median of 0: any worse median is a regression
    assert verdict([0.0] * 10, [0.0] * 9 + [1.0]) == "held"
    assert verdict([0.0] * 10, [1.0] * 10) == "regression"


def test_unresolved_is_a_parent_spread_beyond_the_bound():
    # median 11.5, quartiles 10 and 13: a relative quartile distance of 0.26
    wide = [10.0] * 5 + [13.0] * 5
    assert verdict(wide, [10.5] * 10) == "unresolved"
    # unless every change run beats every parent run
    assert verdict(wide, [9.9] * 10) == "held"
    # the same spread inside a looser bound
    assert verdict(wide, [10.5] * 10, bound=0.3) == "held"


def test_summary_states_a_verdict_for_each_metric():
    pairs = [pair(k, {"wall": p, "peak": 50.0}, {"wall": p - 1.0, "peak": 70.0})
             for k, p in enumerate(STEADY, start=1)]
    out = record.summarize(pairs, {"wall": ("lower", 0.24), "peak": ("lower", 0.05)})
    assert out["w"]["wall"]["verdict"] == "gain"
    assert out["w"]["peak"]["verdict"] == "regression"
