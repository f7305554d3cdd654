"""The pair summariser of `tools/bench_pairs.py` on hand-built runs: the
numbers a `BENCH_*.json` file reports, without running git or a benchmark."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(unit, **sides):
    """{side: [run, ...]} with one metric per keyword of {name: values}."""
    return {side: [{"metrics": {name: {"value": v[i], "unit": unit}
                                for name, v in metrics.items()}}
                   for i in range(len(next(iter(metrics.values()))))]
            for side, metrics in sides.items()}


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)


def test_quartiles_of_a_single_run_are_the_run():
    assert bench_pairs.quartiles([7.5]) == (7.5, 7.5)


def test_summary_of_a_lower_is_better_metric():
    runs = _runs("us", parent={"wall_s": [10.0, 12.0, 11.0, 13.0]},
                 change={"wall_s": [9.0, 12.0, 12.0, 10.0]})
    entry = bench_pairs.summarise(runs, {})["wall_s"]
    assert entry["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "n": 4}
    assert entry["change"] == {"median": 11.0, "q1": 9.75, "q3": 12.0, "n": 4}
    assert entry["parent_iqr"] == 1.5
    assert entry["change_vs_parent_pct"] == pytest.approx(-4.3)
    # pairs (10, 9) and (13, 10) read lower; (12, 12) ties; (11, 12) reads higher
    assert entry["change_wins"] == "2/4"
    assert entry["unit"] == "us"


def test_change_wins_follow_a_higher_is_better_metric():
    # the same runs under both directions: pairs (5, 7) and (5, 6) read
    # higher, (6, 4) lower
    runs = _runs("count", parent={"kept": [5.0, 5.0, 6.0], "lost": [5.0, 5.0, 6.0]},
                 change={"kept": [7.0, 6.0, 4.0], "lost": [7.0, 6.0, 4.0]})
    summary = bench_pairs.summarise(runs, {"kept": "higher", "lost": "lower"})
    assert summary["kept"]["change_wins"] == "2/3"
    assert summary["lost"]["change_wins"] == "1/3"
    assert summary["kept"]["change_vs_parent_pct"] == 20.0


def test_ties_count_for_neither_side():
    runs = _runs("s", parent={"wall_s": [1.0, 2.0]}, change={"wall_s": [1.0, 2.0]})
    for better in ({}, {"wall_s": "higher"}):
        assert bench_pairs.summarise(runs, better)["wall_s"]["change_wins"] == "0/2"


def test_a_zero_parent_median_has_no_percent_change():
    runs = _runs("count", parent={"skipped": [0.0]}, change={"skipped": [3.0]})
    entry = bench_pairs.summarise(runs, {})["skipped"]
    assert entry["change_vs_parent_pct"] is None
    assert entry["parent"] == {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 1}
    assert entry["parent_iqr"] == 0.0
    assert entry["change_wins"] == "0/1"



def test_a_lower_is_better_metric_is_beyond_its_bound_when_it_rises_past_it():
    # parent median 10; a bound of 0.25 lets the change's median reach 12.5
    runs = _runs("s", parent={"wall_s": [10.0] * 3, "setup_s": [10.0] * 3,
                              "peak": [10.0] * 3, "layer": [10.0] * 3},
                 change={"wall_s": [12.5] * 3, "setup_s": [12.6] * 3,
                         "peak": [4.0] * 3, "layer": [20.0] * 3})
    summary = bench_pairs.summarise(runs, {}, {"wall_s": 0.25, "setup_s": 0.25, "peak": 0.1})
    assert summary["wall_s"]["bound"] == 0.25
    assert summary["wall_s"]["beyond_bound"] is False
    assert summary["setup_s"]["beyond_bound"] is True
    # lower is better: a fall is never beyond the bound
    assert summary["peak"]["beyond_bound"] is False
    # a metric without a bound (a per-layer one) gets neither field
    assert "bound" not in summary["layer"] and "beyond_bound" not in summary["layer"]


def test_a_higher_is_better_metric_is_beyond_its_bound_when_it_falls_past_it():
    # parent median 0.8; a bound of 0.1 lets the change's median fall to 0.72
    runs = _runs("auc", parent={"auc": [0.8, 0.8], "kept": [0.8, 0.8], "rise": [0.8, 0.8]},
                 change={"auc": [0.7, 0.7], "kept": [0.75, 0.75], "rise": [2.0, 2.0]})
    summary = bench_pairs.summarise(runs, {"auc": "higher", "kept": "higher", "rise": "higher"},
                                    {"auc": 0.1, "kept": 0.1, "rise": 0.1})
    assert summary["auc"]["beyond_bound"] is True
    assert summary["kept"]["beyond_bound"] is False
    assert summary["rise"]["beyond_bound"] is False
