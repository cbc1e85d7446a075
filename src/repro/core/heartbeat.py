"""Heartbeat-based failure detection.

"The system implements heartbeat-based failure detection with
configurable timeouts, i.e., nodes that miss three consecutive
heartbeats are marked as unavailable, triggering automatic workload
migration" (§3.5).

Two operating modes with identical semantics:

* ``rpc`` — agents send real heartbeat messages over the LAN and a
  checker process scans for staleness.  Accurate, but for a six-week
  simulation the per-beat events dominate run time.
* ``virtual`` — no periodic events.  The monitor is told when a node
  goes silent (the simulator knows the instant the cable is pulled,
  even though the *coordinator logic* must not act on it early) and
  schedules the detection callback at exactly
  ``missed_heartbeats × interval`` later, cancelling it if heartbeats
  resume first.  This is the event-free limit of the rpc mode.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from ..config import PlatformConfig
from ..sim import Environment, Timer
from .registry import NodeRecord, NodeRegistry, NodeStatus

FailureCallback = Callable[[NodeRecord], None]


class HeartbeatMonitor:
    """Marks silent nodes unavailable and notifies the coordinator."""

    def __init__(
        self,
        env: Environment,
        registry: NodeRegistry,
        config: PlatformConfig,
        on_failure: FailureCallback,
    ):
        self.env = env
        self.registry = registry
        self.config = config
        self.on_failure = on_failure
        #: node_id → its virtual-mode detection alarm.
        self._detectors: Dict[str, Timer] = {}
        self._checker_running = False
        self._suspended = False
        #: node_id → instant its detection fired while suspended.
        self._missed: Dict[str, float] = {}
        #: node_id → instant the detection that declared it actually
        #: fired (equals the declaration instant except for detections
        #: replayed after a coordinator outage).
        self._detected_at: Dict[str, float] = {}

    # -- common --------------------------------------------------------------

    def receive(self, node_id: str) -> None:
        """A heartbeat arrived from ``node_id``."""
        self.registry.touch_heartbeat(node_id)
        self.node_returned(node_id)  # any pending detection is superseded

    def node_returned(self, node_id: str) -> None:
        """Cancel pending detection: the node is talking to us again."""
        detector = self._detectors.get(node_id)
        if detector is not None:
            detector.cancel()

    def _declare_failed(self, node_id: str,
                        at: Optional[float] = None) -> None:
        if self._suspended:
            # The coordinator process is down: it cannot act on the
            # failure now.  Remember when it fired so the takeover can
            # replay it with honest timing.
            self._missed.setdefault(node_id, self.env.now)
            return
        try:
            record = self.registry.get(node_id)
        except KeyError:
            return
        if record.status in (NodeStatus.UNAVAILABLE, NodeStatus.DEPARTED):
            return
        self._detected_at[node_id] = self.env.now if at is None else at
        self.registry.set_status(node_id, NodeStatus.UNAVAILABLE)
        self.on_failure(record)

    def declare_failed(self, node_id: str) -> None:
        """Mark ``node_id`` failed now (idempotent; used by resync when
        a status probe finds a node unreachable)."""
        self._declare_failed(node_id)

    def detection_time(self, node_id: str) -> float:
        """When the detection that declared ``node_id`` failed fired.

        Normally the declaration instant itself; earlier than "now"
        only for detections replayed after a coordinator outage —
        downtime and MTBF accounting use this instead of the replay
        instant.
        """
        return self._detected_at.get(node_id, self.env.now)

    # -- control-plane failover ----------------------------------------------

    def suspend(self) -> None:
        """Stop acting on detections: the owning coordinator crashed.

        Detections that fire while suspended are queued in ``_missed``
        instead of dispatched, so a backup taking over later still
        learns about nodes that died during the outage window.
        """
        self._suspended = True

    def resume(self) -> None:
        """Re-arm detection after a takeover/restart.

        Replays detections that fired during the outage and, in rpc
        mode, refreshes every live node's staleness clock so the first
        post-takeover scan doesn't mass-declare nodes that were simply
        unable to reach a dead endpoint.
        """
        self._suspended = False
        if self.config.heartbeat_mode == "rpc":
            for record in self.registry.all_records():
                if record.status in (NodeStatus.UNAVAILABLE,
                                     NodeStatus.DEPARTED):
                    continue
                self.registry.touch_heartbeat(record.node_id)
        missed, self._missed = self._missed, {}
        for node_id in sorted(missed):
            self._declare_failed(node_id, at=missed[node_id])

    # -- virtual mode -----------------------------------------------------------

    def node_went_silent(self, node_id: str) -> None:
        """Virtual-mode hook: schedule detection after the timeout.

        Called by the agent model at the instant of a *silent*
        departure (emergency kill-switch, power loss).  The coordinator
        only learns about it when the detection fires — exactly when
        the third heartbeat would have been missed.
        """
        detector = self._detectors.get(node_id)
        if detector is None:
            detector = self._detectors[node_id] = self.env.timer(
                lambda: self._declare_failed(node_id))
        detector.arm(self.env.now + self.config.failure_detection_delay)

    # -- rpc mode ------------------------------------------------------------------

    def start_checker(self) -> None:
        """Start the periodic staleness scan (rpc mode only)."""
        if self._checker_running:
            return
        self._checker_running = True
        self.env.process(self._checker(), name="heartbeat-checker")

    def _checker(self) -> Generator:
        timeout = self.config.failure_detection_delay
        while True:
            yield self.env.timeout(self.config.heartbeat_interval)
            if self._suspended:
                # Staleness while the coordinator is down is an artifact
                # of the dead endpoint, not of dead nodes; ``resume``
                # refreshes the clocks before scanning again.
                continue
            for record in self.registry.all_records():
                if record.status in (NodeStatus.UNAVAILABLE, NodeStatus.DEPARTED):
                    continue
                if self.env.now - record.last_heartbeat > timeout:
                    self._declare_failed(record.node_id)
