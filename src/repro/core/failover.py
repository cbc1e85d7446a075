"""Control-plane high availability: primary/backup coordinator pairs.

Everything below the control plane already fails — links sever,
providers vanish — but until now the per-campus coordinator process
itself was immortal.  This module adds the primary/backup split: a
:class:`CoordinatorHA` wraps one campus :class:`~repro.core.
coordinator.Coordinator` with a pair of named replicas ("a" and "b"),
virtual heartbeat detection between them, and leader takeover with
state handoff.

The replication model follows the paper's §3.5 shared-database design
(and the primary/backup scheduler split in SNIPPETS.md): the durable
scheduler state — node registry, priority queue, job states,
placements, and in-flight dispatch *leases* — lives in the shared
campus database, so both replicas see it.  What a crash loses is the
*process*: its API endpoint, its dispatch loops, and the in-flight RPC
futures.  A takeover therefore is restore + resync: the new leader
rebinds the endpoint over the shared state, probes the fleet, adopts
placements whose acceptance reply died with the old primary, finalizes
completions that reported into the void, and requeues everything else
— exactly-once execution is preserved because adoption, not
re-dispatch, resolves the ambiguous cases.

Failover epochs are first-class trace spans: when tracing is on, each
leadership term is a ``coordinator-epoch`` root span in the
``ha:<site>`` trace, finished with status ``failed-over`` when its
leader dies, so causal traces stay orphan-free across a leader change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..sim import Environment

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..observability.trace import TraceContext, Tracer
    from .coordinator import Coordinator


@dataclass(frozen=True)
class FailoverConfig:
    """Tunables for coordinator replica failure detection."""

    #: Replica-to-replica heartbeat period (seconds).  Deliberately
    #: tighter than the provider heartbeat: control-plane takeover
    #: latency is queue-stall time for the whole campus.
    heartbeat_interval: float = 5.0
    #: Consecutive missed replica heartbeats before takeover.
    missed_heartbeats: int = 3

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.missed_heartbeats < 1:
            raise ValueError("missed_heartbeats must be >= 1")

    @property
    def detection_delay(self) -> float:
        """Silence-to-takeover latency for a backup replica."""
        return self.heartbeat_interval * self.missed_heartbeats


class CoordinatorHA:
    """A primary/backup replica pair for one campus coordinator.

    Replica heartbeats use the same virtual-detection trick as the
    provider monitor: no periodic events on the default path — the
    simulator knows the instant a replica dies and schedules the
    backup's detection exactly ``detection_delay`` later, superseding
    it if the dead replica restarts first.
    """

    REPLICAS = ("a", "b")

    def __init__(
        self,
        env: Environment,
        coordinator: "Coordinator",
        config: Optional[FailoverConfig] = None,
        site: str = "",
        tracer: Optional["Tracer"] = None,
    ):
        self.env = env
        self.coordinator = coordinator
        self.config = config or FailoverConfig()
        self.site = site or coordinator.hostname
        self.tracer = tracer
        self.replicas: Dict[str, bool] = {name: True for name in self.REPLICAS}
        self.leader: str = self.REPLICAS[0]
        self.takeovers = 0
        #: The backup's pending detection of a dead leader; every
        #: crash and restart cancels it.
        self._detection = env.timer(self._maybe_take_over)
        self._epoch_trace: Optional["TraceContext"] = None
        if self.tracer is not None:
            self._epoch_trace = self.tracer.start(
                "coordinator-epoch", trace_id=f"ha:{self.site}",
                site=self.site, epoch=self.epoch, leader=self.leader)

    @property
    def epoch(self) -> int:
        """Current leadership term (1 = original primary)."""
        return self.coordinator.epoch

    @property
    def headless(self) -> bool:
        """True while no live replica leads (total control-plane loss)."""
        return self.coordinator.is_crashed

    def live_replicas(self) -> list:
        """Names of replicas currently up."""
        return [name for name, alive in sorted(self.replicas.items()) if alive]

    def _live_backup(self) -> Optional[str]:
        for name in sorted(self.replicas):
            if name != self.leader and self.replicas[name]:
                return name
        return None

    # -- failure injection ---------------------------------------------------

    def crash(self, replica: Optional[str] = None) -> Optional[str]:
        """Kill a replica process (the current leader by default).

        Killing the leader takes the coordinator down; a live backup
        detects the silence after ``detection_delay`` and takes over.
        Killing a backup is silent — until the leader dies too, at
        which point the campus is headless until a :meth:`restart`.
        Returns the replica actually killed (``None`` if it was
        already down).
        """
        target = self.leader if replica is None else replica
        if not self.replicas.get(target, False):
            return None
        self.replicas[target] = False
        self._detection.cancel()
        if target != self.leader:
            return target
        self.coordinator.crash()
        if self._live_backup() is not None:
            self._detection.arm(self.env.now + self.config.detection_delay)
        return target

    def restart(self, replica: Optional[str] = None) -> Optional[str]:
        """Bring a dead replica back up (the oldest casualty by default).

        A replica restarting into a headless campus leads immediately
        (a fresh incarnation over the shared state — still a new
        epoch, still a full resync).  Restarting while a peer leads
        just restores the backup.  Returns the replica revived
        (``None`` if none was down).
        """
        if replica is None:
            down = [name for name, alive in sorted(self.replicas.items())
                    if not alive]
            if not down:
                return None
            replica = down[0]
        if self.replicas.get(replica, False):
            return None
        self.replicas[replica] = True
        self._detection.cancel()
        if self.coordinator.is_crashed:
            self._take_over(replica)
        return replica

    # -- takeover ------------------------------------------------------------

    def _maybe_take_over(self) -> None:
        # Replicas are as the crash left them: a crash or restart since
        # would have cancelled this detection.
        if self.coordinator.is_crashed:  # else restarted directly
            self._take_over(self._live_backup())

    def _take_over(self, new_leader: str) -> None:
        self.takeovers += 1
        self.coordinator.epoch += 1
        self.leader = new_leader
        if self.tracer is not None:
            self.tracer.finish(self._epoch_trace, status="failed-over")
            self._epoch_trace = self.tracer.start(
                "coordinator-epoch", trace_id=f"ha:{self.site}",
                site=self.site, epoch=self.epoch, leader=new_leader)
        self.coordinator.events.emit(
            "coordinator-takeover", host=self.coordinator.hostname,
            leader=new_leader, epoch=self.epoch)
        self.coordinator.restore()
        self.env.process(self.coordinator.resync(),
                         name=f"resync:{self.site}:{self.epoch}")
