"""The perf report's gate verdicts, on synthetic numbers (no timing)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_report.py"
_SPEC = importlib.util.spec_from_file_location("perf_report", _PATH)
perf_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_report)


@pytest.mark.parametrize("share, floor, verdict", [
    (0.0004, 0.0007, "pass"),
    (-0.001, 0.002, "pass"),       # a negative A/B delta is noise, not a gain
    (0.03, 0.001, "fail"),         # the bound itself fails
    (0.067, 0.002, "fail"),
    (0.001, 0.03, "unresolved"),   # the floor reaches the bound
    (0.09, 0.05, "unresolved"),    # even a large share cannot be told apart
])
def test_hooks_verdict(share, floor, verdict):
    assert perf_report.hooks_verdict(share, floor) == verdict


@pytest.mark.parametrize("speedup, reallocations, reference, verdict", [
    (11.61, 300, 300, "pass"),
    (5.8, 300, 300, "pass"),
    (5.79, 300, 300, "fail"),
    (12.0, 300, 301, "fail"),      # faster, but not the same work
])
def test_speedup_verdict(speedup, reallocations, reference, verdict):
    assert perf_report.speedup_verdict(speedup, reallocations,
                                       reference) == verdict
