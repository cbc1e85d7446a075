"""Platform configuration.

One dataclass gathers every tunable the paper mentions so experiments
can state their setup in one place: heartbeat cadence and the
three-missed-heartbeats rule (§3.5), the kill-switch grace period
(§3.4), and scheduler/checkpoint policy selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .units import MINUTE


@dataclass
class PlatformConfig:
    """Tunables for one GPUnion deployment."""

    #: Seconds between provider-agent heartbeats.
    heartbeat_interval: float = 15.0
    #: Consecutive missed heartbeats before a node is marked unavailable.
    missed_heartbeats: int = 3
    #: "rpc" sends real heartbeat messages (accurate, heavy for long
    #: simulations); "virtual" computes detection delays analytically
    #: with identical semantics (used by the multi-week experiments).
    heartbeat_mode: str = "virtual"
    #: Grace period a scheduled (voluntary) departure grants workloads
    #: for a final checkpoint before containers are killed.
    departure_grace_period: float = 2 * MINUTE
    #: Placement strategy: "round-robin", "best-fit", "reliability",
    #: or "fair-share".
    scheduler: str = "round-robin"
    #: Checkpoint interval policy: "fixed" or "young-daly".
    checkpoint_policy: str = "fixed"
    #: Whether displaced jobs migrate back when their home provider
    #: reconnects (§4's temporary-unavailability behaviour).
    migrate_back: bool = True
    #: Delay between a provider's return and the migrate-back control
    #: loop evaluating it.  During this window newly queued work may
    #: re-occupy the returning GPUs — displaced jobs then stay where
    #: they are ("not in time", §4).
    migrate_back_scan_delay: float = 2 * MINUTE
    #: Seconds between dispatch retries of requests no node could
    #: take: parked work is re-queued on this grid, and the retry
    #: timer is disarmed while nothing is parked.
    dispatch_retry_interval: float = 30.0
    #: Container start latency on provider nodes (seconds).
    container_start_latency: float = 2.0

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.missed_heartbeats < 1:
            raise ValueError("missed_heartbeats must be >= 1")
        if self.heartbeat_mode not in ("rpc", "virtual"):
            raise ValueError(f"unknown heartbeat_mode {self.heartbeat_mode!r}")
        if self.departure_grace_period < 0:
            raise ValueError("departure_grace_period must be >= 0")
        if self.scheduler not in ("round-robin", "best-fit", "reliability",
                                  "fair-share"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.checkpoint_policy not in ("fixed", "young-daly"):
            raise ValueError(f"unknown checkpoint_policy {self.checkpoint_policy!r}")

    @property
    def failure_detection_delay(self) -> float:
        """Worst-case time to detect a silent departure."""
        return self.heartbeat_interval * self.missed_heartbeats
