"""The drift summariser of `tools/drift.py` on hand-built arrays: the numbers
a drift record reports, without running git or a training."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import drift


def test_equal_fields_drift_by_zero():
    fields = {"weight mean": np.array([0.5, -2.0, 0.0]), "gamma (a, b)": np.array([3.0, 4.0])}
    same = {name: v.copy() for name, v in fields.items()}
    assert drift.field_drift(fields, same) == {
        "gamma (a, b)": {"max_abs": 0.0, "max_rel": 0.0},
        "weight mean": {"max_abs": 0.0, "max_rel": 0.0}}


def test_drift_is_relative_to_the_larger_magnitude():
    parent = {"weight var": np.array([[1.0, 4.0], [0.0, 0.0]])}
    change = {"weight var": np.array([[1.5, 3.0], [0.0, -0.25]])}
    got = drift.field_drift(parent, change)["weight var"]
    # |diff| 0.5, 1, 0, 0.25 over 1.5, 4, both zero, 0.25
    assert got["max_abs"] == 1.0
    assert got["max_rel"] == 1.0
    change["weight var"][1, 1] = 0.0
    assert drift.field_drift(parent, change)["weight var"]["max_rel"] == pytest.approx(1.0 / 3.0)


def test_fields_of_one_side_or_of_other_shapes_are_named():
    parent = {"weight mean": np.zeros(3), "gamma (a, b)": np.ones(2)}
    change = {"weight mean": np.zeros(4), "weight term_logit": np.zeros(3)}
    assert drift.field_drift(parent, change) == {
        "gamma (a, b)": {"only_in": "parent"},
        "weight mean": {"shape": {"parent": [3], "change": [4]}},
        "weight term_logit": {"only_in": "change"}}


def test_dataset_summary_reads_rmse_lower_and_auc_higher():
    # two pairs read lower, (0.6, 0.7) higher and (0.5, 0.5) ties
    parent, change = [0.2, 0.3, 0.5, 0.6], [0.1, 0.2, 0.5, 0.7]
    assert drift.dataset_summary("rmse", parent, change) == {
        "metric": "rmse", "parent_mean": pytest.approx(0.4),
        "change_mean": pytest.approx(0.375), "change_better": "2/4"}
    assert drift.dataset_summary("auc", parent, change)["change_better"] == "1/4"


def test_set_flag_replaces_one_value():
    argv = ["train", "--seed", "1", "--checkpoint", "a.json"]
    assert drift._set_flag(argv, "--seed", "7") == ["train", "--seed", "7",
                                                    "--checkpoint", "a.json"]
    assert argv[2] == "1"
