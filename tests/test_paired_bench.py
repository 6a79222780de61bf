"""The per-metric verdict of `tools/paired_bench.py`, on hand-made runs."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"


@pytest.fixture(scope="module")
def verdict():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.metric_verdict


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
