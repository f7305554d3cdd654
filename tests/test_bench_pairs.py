"""The pair summariser of `tools/bench_pairs.py` on hand-built runs: the
numbers a `BENCH_*.json` file reports, without running git or a benchmark."""

import importlib.util
import json
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


def test_a_gain_is_shown_by_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    # parent 10..19: median 14.5, inclusive quartiles 12.25 and 16.75, so an
    # IQR of 4.5. "fast" wins 9 of 10 pairs and its median, 9.5, is 5 below
    # the parent's; "close" wins all 10 by 1 each, a gap of 1; "mixed" is 5
    # lower in the median but wins only 8 pairs; "higher" is "fast" read
    # with the other direction
    parent = [float(v) for v in range(10, 20)]
    fast = [v - 5.0 for v in parent[:9]] + [parent[9] + 1.0]
    mixed = [v - 5.0 for v in parent[:8]] + [parent[8] + 1.0, parent[9] + 1.0]
    runs = _runs("ms", parent={name: parent for name in ("fast", "close", "mixed", "higher")},
                 change={"fast": fast, "close": [v - 1.0 for v in parent], "mixed": mixed,
                         "higher": fast})
    summary = bench_pairs.summarise(runs, {"higher": "higher"})
    assert summary["fast"]["parent_iqr"] == 4.5
    assert (summary["fast"]["change_wins"], summary["fast"]["gain_shown"]) == ("9/10", True)
    assert (summary["close"]["change_wins"], summary["close"]["gain_shown"]) == ("10/10", False)
    assert (summary["mixed"]["change_wins"], summary["mixed"]["gain_shown"]) == ("8/10", False)
    assert summary["higher"]["gain_shown"] is False


def _digest_runs(parent, change):
    return {"parent": [{"digest": d} for d in parent], "change": [{"digest": d} for d in change]}


def test_digests_match_only_where_every_run_wrote_the_same_checkpoint():
    assert bench_pairs.compare_digests(_digest_runs(["a", "a"], ["a", "a"])) == (
        {"parent": ["a"], "change": ["a"]}, True)
    assert bench_pairs.compare_digests(_digest_runs(["a", "a"], ["b", "b"]))[1] is False
    # a side that wrote two checkpoints over its runs matches nothing
    assert bench_pairs.compare_digests(_digest_runs(["a", "b"], ["a", "b"]))[1] is False
    # serve-predict prints no digest: there is nothing to match
    assert bench_pairs.compare_digests(_digest_runs([None], [None])) == (
        {"parent": [], "change": []}, None)


@pytest.mark.parametrize("change_digest", ["d0", "d1"])
def test_main_records_whether_the_digests_match_and_says_where_not(
        tmp_path, monkeypatch, capsys, change_digest):
    # main on stand-ins for git and the benchmark: two sides whose train
    # runs print a digest each, and a serve workload that prints none
    def export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "wall_s", '
                                             '"better": "lower", "bound": 0.25}]}')
        return f"commit-{rev}"

    def run_once(tree, workload, seed, seconds, trace):
        digest = None if workload == "serve-predict" else (
            "d0" if tree.name == "parent" else change_digest)
        return {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}, "correct": True,
                "attempted": 1, "failed": 0, "digest": digest, "machine": "machine x"}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--workload",
                             "train-binary", "serve-predict", "--seed", "1", "--pairs", "2",
                             "--seconds", "1", "--out", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    train, serve = workloads["train-binary seed 1 trace 0"], workloads["serve-predict seed 1 trace 0"]
    assert train["digests_match"] is (change_digest == "d0")
    assert "digests_match" not in serve
    differ = [line for line in capsys.readouterr().out.splitlines() if "differ" in line]
    if change_digest == "d0":
        assert differ == []
    else:
        assert differ == ["train-binary seed 1: checkpoint digests differ: parent d0; change d1"]
