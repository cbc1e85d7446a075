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

A call is not a process.  One small exchange object steps through it
with callbacks on the events the call already has: one ``call_at(now)``
entry for its first step, then the request leg's completion, a
generator handler's child process, the response leg's completion and
finally the caller's result.  An untimed call between idle hosts
pushes six queue entries: the first step, a wake and a completion per
leg, and the result.  A handler that raises anything but a
:class:`~repro.errors.NetworkError` fails the call with
:class:`RpcError` and is counted in :attr:`RpcLayer.handler_errors`,
so a remote bug is never silent.

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
        #: Handler exceptions turned into :class:`RpcError`, keyed by
        #: (method, exception type name): remote bugs a caller only
        #: sees as a failed call, counted so that none goes unseen.
        self.handler_errors: Dict[Tuple[str, str], int] = {}

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
        exchange = _Exchange(self, src, dst, method, payload,
                             request_size, response_size, result)
        self.env.call_at(self.env.now, exchange.start)
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


class _Exchange:
    """One call in flight: request leg, handler, response leg.

    Each step is a callback on an event the call already has — the
    request leg's ``done``, a generator handler's child process, the
    response leg's ``done`` — so a call costs no process of its own.
    A :class:`NetworkError` from any step reaches the caller as is;
    any other exception is a handler bug, counted in
    :attr:`RpcLayer.handler_errors` and wrapped in :class:`RpcError`.
    A result the deadline already failed stays failed.
    """

    __slots__ = ("rpc", "src", "dst", "method", "payload", "request_size",
                 "response_size", "result", "response")

    def __init__(self, rpc: RpcLayer, src: str, dst: str, method: str,
                 payload: Any, request_size: float, response_size: float,
                 result: Event):
        self.rpc = rpc
        self.src = src
        self.dst = dst
        self.method = method
        self.payload = payload
        self.request_size = request_size
        self.response_size = response_size
        self.result = result
        self.response: Any = None

    def start(self, _: Any) -> None:
        self._send(self.src, self.dst, self.request_size, self._on_request)

    def _send(self, src: str, dst: str, size: float,
              then: Callable[[Event], None]) -> None:
        """Start one leg; ``then`` runs when it lands or dies."""
        try:
            leg = self.rpc.network.transfer(src, dst, size,
                                            category="control")
        except Exception as exc:
            self._fail(exc)
            return
        leg.callbacks.append(then)

    def _on_request(self, leg: Event) -> None:
        if not leg.ok:
            self._fail(leg.value)
            return
        try:
            endpoint = self.rpc._endpoints.get(self.dst)
            if endpoint is None:
                raise RpcError(f"no API server on {self.dst!r}")
            response = endpoint.handler_for(self.method)(self.payload)
            if isinstance(response, Generator):
                self.rpc.env.process(response).callbacks.append(
                    self._on_handled)
                return
        except Exception as exc:
            self._fail(exc)
            return
        self._respond(response)

    def _on_handled(self, handler: Event) -> None:
        if handler.ok:
            self._respond(handler.value)
        else:
            self._fail(handler.value)

    def _respond(self, response: Any) -> None:
        self.response = response
        self._send(self.dst, self.src, self.response_size, self._on_response)

    def _on_response(self, leg: Event) -> None:
        if not leg.ok:
            self._fail(leg.value)
        elif not self.result.triggered:
            self.result.succeed(self.response)

    def _fail(self, exc: Exception) -> None:
        if not isinstance(exc, NetworkError):
            key = (self.method, type(exc).__name__)
            errors = self.rpc.handler_errors
            errors[key] = errors.get(key, 0) + 1
            exc = RpcError(f"{self.method}@{self.dst} raised: {exc!r}")
        if not self.result.triggered:  # a deadline may have fired first
            self.result.fail(exc)
