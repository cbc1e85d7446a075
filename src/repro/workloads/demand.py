"""The diurnal demand-arrival primitive.

:class:`DemandProcess` is a diurnally-modulated Poisson process with a
*phase shift* (a campus in another timezone peaks at a different
simulation hour).  The scenario compiler draws every job and session
arrival through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..units import DAY, HOUR


def diurnal_weight(time_of_day: float) -> float:
    """Relative demand intensity over the day.

    Campus activity peaks mid-afternoon and bottoms out before dawn;
    modelled as a raised cosine with its minimum at 04:00.
    """
    phase = 2 * math.pi * (time_of_day / DAY - 4 * HOUR / DAY)
    return 0.55 - 0.45 * math.cos(phase)


@dataclass(frozen=True)
class DemandProcess:
    """A (possibly diurnally-modulated) Poisson arrival process.

    Parameters
    ----------
    rate_per_day:
        Mean arrivals per day *at peak modulation weight* (the thinned
        realised rate is lower — the raised cosine averages 0.55).
    modulated:
        Whether to thin arrivals by the diurnal weight.  ``False``
        gives a plain homogeneous Poisson process.
    phase_hours:
        Hours to shift the diurnal curve *earlier*.  A site eight
        timezones east of the simulation origin peaks eight sim-hours
        earlier: ``phase_hours=8``.
    """

    rate_per_day: float
    modulated: bool = True
    phase_hours: float = 0.0

    def __post_init__(self):
        if self.rate_per_day < 0:
            raise ValueError("rate_per_day must be non-negative")

    def weight(self, at: float) -> float:
        """Modulation weight at simulation time ``at`` (1.0 when off)."""
        if not self.modulated:
            return 1.0
        return diurnal_weight((at + self.phase_hours * HOUR) % DAY)

    def arrivals(self, rng, horizon: float, start: float = 0.0) -> List[float]:
        """Thinned non-homogeneous arrival times over [start, horizon].

        Candidate gaps are drawn at the peak rate and kept with
        probability equal to the diurnal weight — one ``expovariate``
        plus (when modulated) one ``random`` per candidate.
        """
        if self.rate_per_day <= 0:
            return []
        peak_rate = self.rate_per_day / DAY  # events/second at weight 1.0
        times: List[float] = []
        t = start
        while True:
            t += rng.expovariate(peak_rate)
            if t >= horizon:
                break
            if self.modulated and rng.random() > self.weight(t):
                continue
            times.append(t)
        return times
