"""Coordinator-side node registry.

Tracks every provider that ever registered: identity (unique machine
id + auth token, §3.4), advertised GPU inventory, availability status,
and the coordinator's bookkeeping of free GPU memory (updated on every
dispatch/completion so scheduling never needs a round-trip).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import AuthenticationError, RegistrationError
from ..sim import Environment


class NodeStatus(Enum):
    """Availability of one provider node."""

    AVAILABLE = "available"
    PAUSED = "paused"  # provider stopped accepting new work
    UNAVAILABLE = "unavailable"  # heartbeat loss / emergency departure
    DEPARTED = "departed"  # graceful exit, deregistered


@dataclass
class GpuInventory:
    """Coordinator's view of one advertised GPU."""

    uuid: str
    model: str
    memory_total: float
    memory_free: float
    compute_capability: Tuple[int, int]


@dataclass
class NodeRecord:
    """Everything the coordinator knows about one provider."""

    node_id: str
    hostname: str
    owner_lab: str
    auth_token: str
    registered_at: float
    status: NodeStatus = NodeStatus.AVAILABLE
    gpus: Dict[str, GpuInventory] = field(default_factory=dict)
    last_heartbeat: float = 0.0

    @property
    def is_schedulable(self) -> bool:
        """Whether new work may be placed here."""
        return self.status is NodeStatus.AVAILABLE

    def free_gpus(self, min_memory: float,
                  min_capability: Tuple[int, int],
                  exclusive: bool = False) -> List[GpuInventory]:
        """Advertised GPUs satisfying the request constraints.

        ``exclusive`` placements (training) need a completely free
        card; shared placements (notebooks) only need the memory.
        """
        result = []
        for gpu in self.gpus.values():
            if gpu.memory_free < min_memory:
                continue
            if gpu.compute_capability < tuple(min_capability):
                continue
            if exclusive and gpu.memory_free < gpu.memory_total:
                continue
            result.append(gpu)
        return result


def _issue_token(node_id: str, registered_at: float) -> str:
    digest = hashlib.sha256(f"{node_id}:{registered_at}".encode()).hexdigest()
    return f"gpunion-{digest[:24]}"


class NodeRegistry:
    """Registration, authentication, and inventory bookkeeping."""

    def __init__(self, env: Environment):
        self.env = env
        self._records: Dict[str, NodeRecord] = {}
        self._by_hostname: Dict[str, str] = {}
        #: Bumped on every change that can alter what a capacity scan
        #: would see (registration, status moves, memory bookkeeping).
        self.version = 0
        self._listeners: List[Callable[[], None]] = []

    def add_listener(self, callback: Callable[[], None]) -> None:
        """Register ``callback()``, called after every :attr:`version`
        bump: how the federation gateway's gossip learns that its
        capacity digest may have changed."""
        self._listeners.append(callback)

    def _bump(self) -> None:
        self.version += 1
        for listener in self._listeners:
            listener()

    # -- registration -----------------------------------------------------

    def register(self, node_id: str, hostname: str, owner_lab: str,
                 gpus: List[GpuInventory]) -> NodeRecord:
        """Register (or re-register) a provider; issues a fresh token.

        Re-registration after a departure reuses the node_id (machine
        identifiers are stable) but rotates the auth token.
        """
        existing = self._records.get(node_id)
        if existing is not None and existing.status not in (
            NodeStatus.DEPARTED, NodeStatus.UNAVAILABLE
        ):
            raise RegistrationError(
                f"node {node_id} is already registered and active"
            )
        other = self._by_hostname.get(hostname)
        if other is not None and other != node_id:
            raise RegistrationError(
                f"hostname {hostname!r} already registered as {other}"
            )
        record = NodeRecord(
            node_id=node_id,
            hostname=hostname,
            owner_lab=owner_lab,
            auth_token=_issue_token(node_id, self.env.now),
            registered_at=self.env.now,
            status=NodeStatus.AVAILABLE,
            gpus={gpu.uuid: gpu for gpu in gpus},
            last_heartbeat=self.env.now,
        )
        self._records[node_id] = record
        self._by_hostname[hostname] = node_id
        self._bump()
        return record

    def authenticate(self, node_id: str, token: str) -> NodeRecord:
        """Validate a provider's token; raises on mismatch."""
        record = self._records.get(node_id)
        if record is None:
            raise AuthenticationError(f"unknown node {node_id}")
        if record.auth_token != token:
            raise AuthenticationError(f"bad token for node {node_id}")
        return record

    # -- lookups ------------------------------------------------------------

    def get(self, node_id: str) -> NodeRecord:
        """Record for ``node_id`` (raises ``KeyError`` if unknown)."""
        return self._records[node_id]

    def by_hostname(self, hostname: str) -> NodeRecord:
        """Record for ``hostname`` (raises ``KeyError`` if unknown)."""
        return self._records[self._by_hostname[hostname]]

    def all_records(self) -> List[NodeRecord]:
        """Every record, in registration order."""
        return list(self._records.values())

    def schedulable(self) -> List[NodeRecord]:
        """Records that may receive new work."""
        return [r for r in self._records.values() if r.is_schedulable]

    @property
    def count(self) -> int:
        """Number of registered nodes (any status)."""
        return len(self._records)

    # -- state updates -----------------------------------------------------------

    def set_status(self, node_id: str, status: NodeStatus) -> None:
        """Move a node to ``status``."""
        self.get(node_id).status = status
        self._bump()

    def touch_heartbeat(self, node_id: str) -> None:
        """Record a heartbeat receipt time."""
        self.get(node_id).last_heartbeat = self.env.now

    def reserve_gpu(self, node_id: str, gpu_uuid: str, nbytes: float) -> None:
        """Deduct memory from the coordinator's free-memory view."""
        gpu = self.get(node_id).gpus[gpu_uuid]
        if nbytes > gpu.memory_free + 1e-6:
            raise RegistrationError(
                f"reserving {nbytes:.0f} B on {gpu_uuid} exceeds free "
                f"{gpu.memory_free:.0f} B"
            )
        gpu.memory_free -= nbytes
        self._bump()

    def release_gpu(self, node_id: str, gpu_uuid: str, nbytes: float) -> None:
        """Return memory to the free-memory view (clamped to total)."""
        record = self._records.get(node_id)
        if record is None:
            return
        gpu = record.gpus.get(gpu_uuid)
        if gpu is None:
            return
        gpu.memory_free = min(gpu.memory_total, gpu.memory_free + nbytes)
        self._bump()
