"""REST-style RPC over the simulated LAN.

The provider agent "exposes REST APIs for resource advertisement,
workload lifecycle management, and emergency controls" (§3.2), and the
coordinator calls them.  This module models those request/response
exchanges: each call serializes a small payload onto the flow network,
runs the registered handler at the destination, and returns the response
the same way — so control-plane traffic competes with checkpoint bulk
data for the same links, exactly as on a real campus LAN.

Handlers may be plain functions (instant logic) or generator functions
(logic that itself takes simulated time, e.g. "checkpoint then reply").

Calls may carry a ``timeout``: if the full round trip has not finished
by the deadline, the caller's event fails with
:class:`~repro.errors.RpcTimeoutError` while the in-flight exchange
keeps running to completion at the remote side — the real-world shape
of a lost acknowledgement, where the handler may well have committed.
Callers of non-idempotent methods must treat a timeout as *unknown
outcome* and reconcile before retrying.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..errors import NetworkError, RpcTimeoutError
from ..sim import Environment, Event
from ..units import KIB
from .flows import FlowNetwork


class RpcError(NetworkError):
    """The remote handler raised, or no handler was registered."""


#: Default on-the-wire size of a control-plane message.
DEFAULT_MESSAGE_SIZE = 2 * KIB


class RpcEndpoint:
    """One host's API server: a method-name → handler table."""

    def __init__(self, hostname: str):
        self.hostname = hostname
        self._handlers: Dict[str, Callable[[Any], Any]] = {}

    def register(self, method: str, handler: Callable[[Any], Any]) -> None:
        """Expose ``handler`` under ``method`` (overwrites silently)."""
        self._handlers[method] = handler

    def unregister(self, method: str) -> None:
        """Remove a method (idempotent)."""
        self._handlers.pop(method, None)

    def handler_for(self, method: str) -> Callable[[Any], Any]:
        """Look up a handler, raising :class:`RpcError` if absent."""
        try:
            return self._handlers[method]
        except KeyError:
            raise RpcError(
                f"{self.hostname}: no handler for method {method!r}"
            ) from None

    @property
    def methods(self) -> tuple:
        """Registered method names (sorted)."""
        return tuple(sorted(self._handlers))


class RpcLayer:
    """Routes calls between endpoints over the flow network."""

    def __init__(self, env: Environment, network: FlowNetwork):
        self.env = env
        self.network = network
        self._endpoints: Dict[str, RpcEndpoint] = {}

    def bind(self, hostname: str) -> RpcEndpoint:
        """Create (or return) the endpoint for ``hostname``."""
        endpoint = self._endpoints.get(hostname)
        if endpoint is None:
            endpoint = RpcEndpoint(hostname)
            self._endpoints[hostname] = endpoint
        return endpoint

    def unbind(self, hostname: str) -> None:
        """Tear down a host's API server (provider departed)."""
        self._endpoints.pop(hostname, None)

    def is_bound(self, hostname: str) -> bool:
        """Whether ``hostname`` currently runs an API server."""
        return hostname in self._endpoints

    def call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: Any = None,
        request_size: float = DEFAULT_MESSAGE_SIZE,
        response_size: float = DEFAULT_MESSAGE_SIZE,
        timeout: Optional[float] = None,
    ) -> Event:
        """Invoke ``method`` on ``dst`` from ``src``.

        Returns an event that fires with the handler's return value, or
        fails with :class:`RpcError` (handler missing / raised),
        :class:`NetworkError` (endpoint unreachable mid-call), or
        :class:`~repro.errors.RpcTimeoutError` when ``timeout`` seconds
        pass first (remote outcome unknown — the exchange continues at
        the remote side and any late response is dropped).
        """
        result = self.env.event()
        self.env.process(
            self._call_process(src, dst, method, payload,
                               request_size, response_size, result),
            name=f"rpc:{method}@{dst}",
        )
        if timeout is not None:
            self.env.call_later(timeout, self._deadline,
                                (result, timeout, method, dst))
        return result

    @staticmethod
    def _deadline(call: Tuple[Event, float, str, str]) -> None:
        result, timeout, method, dst = call
        if not result.triggered:
            result.fail(RpcTimeoutError(
                f"{method}@{dst} timed out after {timeout:g}s "
                f"(remote outcome unknown)"
            ))

    def _call_process(
        self,
        src: str,
        dst: str,
        method: str,
        payload: Any,
        request_size: float,
        response_size: float,
        result: Event,
    ) -> Generator:
        try:
            yield self.network.transfer(src, dst, request_size, category="control")
            endpoint = self._endpoints.get(dst)
            if endpoint is None:
                raise RpcError(f"no API server on {dst!r}")
            handler = endpoint.handler_for(method)
            response = handler(payload)
            if isinstance(response, Generator):
                response = yield self.env.process(response)
            yield self.network.transfer(dst, src, response_size, category="control")
        except NetworkError as exc:
            if not result.triggered:  # a deadline may have fired first
                result.fail(exc)
            return
        except Exception as exc:  # handler bug → remote error to caller
            if not result.triggered:
                result.fail(RpcError(f"{method}@{dst} raised: {exc!r}"))
            return
        if not result.triggered:
            result.succeed(response)
