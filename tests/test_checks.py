"""The composite-check judge: each criterion's defect by the conventions
every composite check reports against tolerance 1.0."""

import math

import pytest

from sepsym.checks import CHECKS, CheckContext, judge as judge_check
from sepsym.scenario import parse_scenario

BAND = (12.0, 20.0)


def judge(criteria: dict):
    doc = {"name": "judge", "seed": 0, "space": {"size": 3}, "checks": ["euler-identities"]}
    ctx = CheckContext(scenario=parse_scenario(doc, set(CHECKS)), name="euler-identities")
    return judge_check(ctx, criteria, {"kept": 1})


def defects(criteria: dict) -> dict:
    return {label: c["defect"] for label, c in judge(criteria).details["criteria"].items()}


def test_band_edges_give_zero():
    assert defects({"lo": ("band", 12.0, BAND), "hi": ("band", 20.0, BAND)}) == {"lo": 0.0, "hi": 0.0}


def test_just_outside_the_band_gives_at_least_two():
    below, above = math.nextafter(12.0, 0.0), math.nextafter(20.0, math.inf)
    got = defects({"below": ("band", below, BAND), "above": ("band", above, BAND)})
    assert got["below"] >= 2.0 and got["above"] >= 2.0
    assert got["below"] == 2.0 + (12.0 - below) / 12.0


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_floor_at_or_below_zero_gives_inf(value):
    res = judge({"floor": ("floor", value, 1e-3)})
    assert res.details["criteria"]["floor"]["defect"] == math.inf
    assert res.status == "fail"


def test_floor_and_bound_defects():
    assert defects({"floor": ("floor", 0.5, 0.25), "bound": ("bound", 0.5, 0.25)}) == {
        "floor": 0.5, "bound": 2.0}


def test_a_list_value_gives_its_worst_entry():
    got = defects({"bound": ("bound", [0.25, 1.0, 0.5], 0.5),
                   "band": ("band", [16.0, 24.0, 20.0], BAND),
                   "floor": ("floor", [1.0, 0.125, 0.5], 0.25)})
    assert got == {"bound": 2.0, "band": 2.2, "floor": 2.0}


def test_every_label_is_written_with_its_limit_and_defect():
    res = judge({"b": ("bound", 0.25, 0.5), "r": ("band", [13.0], BAND),
                 "f": ("floor", 2.0, 1.0)})
    assert res.details == {"kept": 1, "criteria": {
        "b": {"value": 0.25, "bound": 0.5, "defect": 0.5},
        "r": {"value": [13.0], "band": [12.0, 20.0], "defect": 0.0},
        "f": {"value": 2.0, "floor": 1.0, "defect": 0.5},
    }}
    assert (res.max_residual, res.tolerance, res.status) == (0.5, 1.0, "pass")


@pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
def test_nan_fails_in_any_position(order):
    # a NaN value meets no criterion: its defect is inf, so max() cannot
    # keep an earlier finite defect in its place
    criteria = {"a": ("bound", 0.5, 1.0), "b": ("band", math.nan, BAND)}
    res = judge({label: criteria[label] for label in order})
    assert res.details["criteria"]["b"]["defect"] == math.inf
    assert (res.max_residual, res.status) == (math.inf, "fail")
