"""The per-metric verdict of `tools/paired_bench.py`, on hand-made runs,
and the order in which it launches the two sides of a pair."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def verdict(tool):
    return tool.metric_verdict


NARROW = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
# quartiles 10 and 30 about a median of 20: a spread of 1.0 of the median
WIDE = [10.0] * 5 + [30.0] * 5


def test_gain_and_loss_by_the_pair_rule(verdict):
    faster = [x * 0.8 for x in NARROW]
    assert verdict(NARROW, faster, -1, 0.25) == "gain"
    assert verdict(NARROW, faster, 1, 0.25) == "loss"


def test_narrow_spread_and_no_clear_change(verdict):
    assert verdict(NARROW, NARROW[::-1], -1, 0.25) == "-"


def test_wide_spread_is_unresolved(verdict):
    assert verdict(WIDE, WIDE[::-1], -1, 0.25) == "unresolved"
    # without a bound there is nothing to resolve against
    assert verdict(WIDE, WIDE[::-1], -1, None) == "-"
    # a spread inside the bound is not wide
    assert verdict(WIDE, WIDE[::-1], -1, 1.5) == "-"


def test_wide_spread_resolved_when_every_change_run_is_better(verdict):
    # every change run beats every parent run, yet the medians differ by
    # less than the parent's interquartile range, so this is no gain
    assert verdict(WIDE, [9.0] * 10, -1, 0.25) == "-"
    assert verdict(WIDE, [31.0] * 10, 1, 0.25) == "-"
    assert verdict(WIDE, [9.0] * 9 + [10.0], -1, 0.25) == "unresolved"


def test_zero_median(verdict):
    assert verdict([0.0] * 10, [0.0] * 10, 1, 0.001) == "-"
    assert verdict([0.0, 1.0] * 5, [0.0, 1.0] * 5, 1, 0.001) == "unresolved"


def test_launch_order_alternates(tool):
    order = tool.launch_order
    assert order(0, None) == [("parent", None), ("change", None)]
    assert order(1, None) == [("change", None), ("parent", None)]
    assert order(2, None) == order(0, None)
    # concurrent pairs: the side launched first takes the first CPU, so
    # each side alternates between the CPUs as well
    assert order(0, (3, 5)) == [("parent", 3), ("change", 5)]
    assert order(1, (3, 5)) == [("change", 3), ("parent", 5)]


def test_pair_ratios(tool):
    assert tool.pair_ratios([2.0, 4.0, 0.0], [3.0, 2.0, 1.0]) == [1.5, 0.5, None]
    assert tool.format_ratios([1.5, 0.5, None]) == "1.500 0.500 n/a"


def test_compare_prints_each_pair_ratio(tool, monkeypatch, capsys):
    # Two pairs of hand-made runs: the ratio is change/parent in each pair,
    # whichever side launched first.
    runs = iter([
        {"parent": {"ops_per_s": 10.0, "setup_s": 0.0},
         "change": {"ops_per_s": 12.0, "setup_s": 0.5}},
        {"change": {"ops_per_s": 9.0, "setup_s": 1.0},
         "parent": {"ops_per_s": 10.0, "setup_s": 2.0}},
    ])
    monkeypatch.setattr(tool, "run_pair", lambda *args: next(runs))
    args = type("Args", (), {"pairs": 2, "seed": 1})()
    tool.compare("kut_sweep", args, 1.0, {"ops_per_s": "higher", "setup_s": "lower"}, {}, None)
    out = capsys.readouterr().out
    tail = out[out.index("change/parent ratio of each pair"):].splitlines()
    assert tail[1].split() == ["ops_per_s", "1.200", "0.900"]
    assert tail[2].split() == ["setup_s", "n/a", "0.500"]
