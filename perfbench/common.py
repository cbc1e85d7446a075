"""Shared measurement helpers: percentiles, metric names, results."""

from __future__ import annotations

import json
import math
import pickle
import re
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

COPY_CHILD = Path(__file__).with_name("copy_child.py")

#: A metric name: starts with a letter or digit, then letters, digits,
#: ``_``, ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    """Whether ``name`` follows the metric-name grammar."""
    return bool(NAME_RE.match(name))


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, p: float) -> float:
    """How many of ``count`` samples lie beyond the ``p``-th percentile
    (rounded, so ``99.9`` of ``10000`` gives exactly 10)."""
    return round(count * (100.0 - p) / 100.0, 6)


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    Falls back to the median when there are too few samples for any
    tail (fewer than 100).
    """
    best = 50.0
    for p in TAIL_PERCENTILES:
        if samples_beyond(count, p) >= TAIL_MIN_BEYOND:
            best = p
    return best


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, sample count)`` of the reportable tail."""
    p = tail_percentile(len(samples))
    return p, percentile(samples, p), len(samples)


#: Copies of a CPU-bound workload measured at once.  With both vCPUs of
#: a 2-vCPU host busy, one copy's speed holds far steadier than beside
#: an idle vCPU, whose sibling lets it run fast only some of the time.
COPIES = 2


#: Wall seconds a copy may run past its measuring time before it is
#: killed.
COPY_GRACE_S = 60.0


def in_parallel(module: str, seed: int, seconds: float) -> list:
    """``module.measure(seed, seconds)`` in :data:`COPIES` child
    processes at once (``copy_child.py``).

    Returns every copy's result.  Every child has ended and been reaped
    when this returns or raises.
    """
    children = [subprocess.Popen(
        [sys.executable, str(COPY_CHILD), module, str(seed), str(seconds)],
        stdout=subprocess.PIPE) for _ in range(COPIES)]
    try:
        parts = []
        for child in children:
            out, _ = child.communicate(timeout=seconds + COPY_GRACE_S)
            if child.returncode != 0:
                raise RuntimeError(
                    f"a copy of {module} exited with {child.returncode}")
            parts.append(pickle.loads(out))
        return parts
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()


def best_of(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Per step, the least wall time any repeat took for it.

    ``repeats`` are the step timings of repeats of identical work, so
    they line up step for step.  A shared host runs a process fast or
    slow in spells; the least time per step is the program's cost with
    the slow spells taken out, whichever repeat they fell in.
    """
    if not repeats:
        raise ValueError("best_of of no repeats")
    lengths = {len(steps) for steps in repeats}
    if len(lengths) != 1:
        raise ValueError(f"repeats of different lengths: {sorted(lengths)}")
    return [min(walls) for walls in zip(*repeats)]


def peak_rss_mib() -> float:
    """This process's peak resident set size, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and whether it was correct."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: ``name -> (value, unit)``, printed in the table and the result.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Workload-specific figures printed in the table only.
    details: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        """Record one failed operation or violated check."""
        self.failed += 1
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems

    def put(self, name: str, value: float, unit: str) -> None:
        if not valid_name(name):
            raise ValueError(f"metric name {name!r} breaks the grammar")
        self.metrics[name] = (float(value), unit)

    def detail(self, name: str, value: float, unit: str) -> None:
        self.details[name] = (float(value), unit)

    def result_line(self) -> str:
        """The one-line JSON result (the last line of standard output)."""
        return json.dumps({
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })

    def table(self, title: str) -> str:
        """Human-readable rows: details first, then reported metrics."""
        lines = [f"== {title}"]
        for name, (value, unit) in self.details.items():
            lines.append(f"  {name:<36} {value:>14.6g} {unit}")
        for name, (value, unit) in self.metrics.items():
            lines.append(f"  {name:<36} {value:>14.6g} {unit}")
        for problem in self.problems[:20]:
            lines.append(f"  FAILED: {problem}")
        return "\n".join(lines)
