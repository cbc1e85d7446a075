"""The fault model: outages, crashes and Byzantine windows as events.

GPUnion's premise is that capacity can vanish at any moment: a WAN
link severs, a campus control process dies, a site starts lying about
its books.  Each of these is one :class:`FaultWindow` — a fault *kind*,
its *target*, when it opens and how long it lasts — and a
:class:`FaultSchedule` is a deterministic set of windows, declared up
front so an experiment's failure trace is part of its configuration.
:meth:`~repro.federation.deployment.FederatedDeployment.inject_faults`
hands a schedule to the deployment's :class:`FaultDriver`, which turns
each window into an *on* at its start and an *off* at its end, on the
simulation clock.  The kinds and their on/off pairs:

* ``link`` — target is the name-sorted site pair; sever / heal.  In
  flight traffic on the route dies, routes recompute, gateways
  reconcile on heal.
* ``coordinator`` — crash / restart the site's leading coordinator
  replica (its HA backup takes over after failure detection).
* ``gateway`` — crash / restart the site's federation gateway (it
  drops off the WAN and recovers its per-job table from the vault).
* each of :data:`~repro.federation.adversary.BYZANTINE_MODES` — set /
  clear that misbehavior mode on the site's attached adversary.

Overlapping windows on one ``(kind, target)`` nest: *on* fires when the
first opens and *off* when the last closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from ..sim import Environment
from .adversary import BYZANTINE_MODES

#: Control-plane processes a window can crash.
CRASH_KINDS = ("coordinator", "gateway")
#: Every fault kind a window can name.
FAULT_KINDS = ("link",) + CRASH_KINDS + BYZANTINE_MODES


@dataclass(frozen=True)
class FaultWindow:
    """One window during which one fault holds one target.

    ``target`` is a site name, or for ``link`` a site pair (stored
    name-sorted).  ``duration=None`` means to the end of the run.
    """

    kind: str
    target: Union[str, Tuple[str, str]]
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {', '.join(FAULT_KINDS)}; "
                             f"got {self.kind!r}")
        if self.kind == "link":
            pair = (() if isinstance(self.target, str)
                    else tuple(sorted(self.target)))
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError("a link window needs two distinct sites")
            object.__setattr__(self, "target", pair)
        elif not isinstance(self.target, str) or not self.target:
            raise ValueError(f"a {self.kind} window needs a site")
        if self.start < 0:
            raise ValueError("window start must be >= 0")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("window duration must be positive")

    @property
    def order(self) -> tuple:
        """Injection order: link outages, then crashes, then Byzantine
        windows, each by start time, target, kind and duration."""
        group = 0 if self.kind == "link" else (
            1 if self.kind in CRASH_KINDS else 2)
        duration = float("inf") if self.duration is None else self.duration
        return (group, self.start, self.target, self.kind, duration)


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic set of fault windows, kept in injection order."""

    windows: Tuple[FaultWindow, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(
            sorted(self.windows, key=lambda window: window.order)))

    @classmethod
    def flapping(
        cls,
        site_a: str,
        site_b: str,
        first_down: float,
        downtime: float,
        uptime: float,
        until: float,
    ) -> "FaultSchedule":
        """A link that severs and heals periodically until ``until``.

        Windows start at ``first_down`` and repeat every
        ``downtime + uptime`` seconds — the classic flapping long-haul
        link the partition-resilience experiment injects.
        """
        if downtime <= 0 or uptime <= 0:
            raise ValueError("downtime and uptime must be positive")
        windows = []
        start = first_down
        while start < until:
            windows.append(
                FaultWindow("link", (site_a, site_b), start, downtime))
            start += downtime + uptime
        return cls(windows=tuple(windows))

    @property
    def total_downtime(self) -> float:
        """Summed seconds of the bounded windows (overlaps counted per
        window)."""
        return sum(window.duration for window in self.windows
                   if window.duration is not None)

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        """Union of two schedules (overlapping windows nest)."""
        return FaultSchedule(windows=self.windows + other.windows)


Handler = Callable[[FaultWindow], object]


class FaultDriver:
    """Runs fault windows on the sim clock through per-kind handlers.

    Each kind registers an on/off pair with :meth:`on`; :meth:`drive`
    starts one process per window.  The driver counts open windows per
    ``(kind, target)``, so overlapping windows nest.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._handlers: Dict[str, Tuple[Handler, Handler]] = {}
        self._depth: Dict[tuple, int] = {}

    def on(self, kind: str, start: Handler, stop: Handler) -> None:
        """Register what opening and closing a ``kind`` window does."""
        self._handlers[kind] = (start, stop)

    def drive(self, window: FaultWindow) -> None:
        """Schedule ``window``'s on and off transitions."""
        start, stop = self._handlers[window.kind]
        label = ("<->".join(window.target) if window.kind == "link"
                 else window.target)
        self.env.process(self._run(window, start, stop),
                         name=f"fault:{window.kind}:{label}"
                              f"@{window.start:g}")

    def _run(self, window, start, stop):
        env = self.env
        if window.start > env.now:
            yield env.timeout(window.start - env.now)
        key = (window.kind, window.target)
        self._depth[key] = self._depth.get(key, 0) + 1
        if self._depth[key] == 1:
            start(window)
        if window.duration is None:
            return
        yield env.timeout(window.duration)
        self._depth[key] -= 1
        if self._depth[key] == 0:
            stop(window)
