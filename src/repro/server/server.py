"""GPUnion as a service: a scenario driven on wall-clock, over HTTP.

:class:`SimulationServer` takes a declarative
:class:`~repro.scenarios.spec.ScenarioSpec`, compiles it, and runs it
*continuously*: a driver thread maps wall-clock onto the simulation
clock (``time_scale`` sim-seconds per wall-second, or free-running),
while an HTTP API accepts work the way the paper's real platform
would.  The driver advances the clock in ``chunk``-second steps and
releases the lock between them.  It sleeps only when a scaled clock
has caught up with its wall-clock target; free-running, or scaled and
behind, it just yields the GIL and steps again.  The HTTP API:

* ``POST /jobs`` — submit a training job (``202`` with the job
  document; ``429`` + ``Retry-After`` when the target site's queue is
  saturated; ``400`` on a malformed payload);
* ``GET /jobs`` — every API-submitted job with its live status;
* ``GET /jobs/<id>`` — one job's full document (status, progress,
  placement, migrations, interruptions);
* ``DELETE /jobs/<id>`` — cancel wherever it is;

plus the whole :class:`~repro.observability.StatusEndpoint` surface
(``/metrics``, ``/status``, ``/traces``…) on the same port.  The
``/metrics`` exposition gains ``server_*`` families (request counts,
submissions, rejections, the live sim clock).

Every handler snapshots or mutates simulation state under the same
lock the driver thread holds while stepping, so requests always see —
and land in — a consistent simulation instant.

>>> from repro.scenarios import example_scenario
>>> from repro.server import SimulationServer
>>> server = SimulationServer(example_scenario())
>>> url = server.start()          # doctest: +SKIP
>>> # curl -X POST f"{url}/jobs" -d '{"site": "north"}' ...
>>> server.stop()                 # doctest: +SKIP
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional

from ..monitoring.metrics import MetricRegistry
from ..observability.collector import FleetCollector
from ..observability.endpoint import Response, StatusEndpoint, _Handler
from ..scenarios.compile import CompiledScenario, compile_scenario
from ..scenarios.spec import ScenarioSpec
from ..units import HOUR, MINUTE
from ..workloads.models import MODEL_CATALOG
from ..workloads.training import JobStatus, TrainingJobSpec

#: Job states the API reports as finished (no further transitions).
TERMINAL_STATUSES = frozenset(
    {JobStatus.COMPLETED, JobStatus.FAILED, JobStatus.CANCELLED})


class _ServerHandler(_Handler):
    """The endpoint handler plus the ``/jobs`` API."""

    #: Injected by :class:`SimulationServer` via the bound subclass.
    sim: "SimulationServer" = None  # type: ignore[assignment]
    routes = _Handler.routes + [
        "POST /jobs", "GET /jobs", "GET /jobs/<id>", "DELETE /jobs/<id>"]

    def do_POST(self):  # noqa: N802 - http.server's naming
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._reply(*self._json_doc(
                400, {"error": f"request body is not JSON: {error}"}))
            return
        self._serve("POST", payload)

    def do_DELETE(self):  # noqa: N802 - http.server's naming
        self._serve("DELETE", None)

    def _route(self, method: str, path: str, payload) -> Optional[Response]:
        if path == "/jobs" or path.startswith("/jobs/"):
            response = self.sim.route_jobs(method, path, payload)
        else:
            response = super()._route(method, path, payload)
        self.sim.count_request(method, path,
                               404 if response is None else response[0])
        return response

    def _metrics_text(self) -> str:
        return super()._metrics_text() + "\n" + self.sim.server_metrics_text()


class SimulationServer(StatusEndpoint):
    """Runs a compiled scenario continuously behind an HTTP API.

    ``time_scale`` is simulation seconds advanced per wall-clock
    second (e.g. ``3600.0`` = one sim-hour per wall-second), honoured
    whenever the simulation can keep up: the driver runs ``chunk``
    sim-seconds per lock hold until it reaches its target, then sleeps
    20 ms.  ``None`` means free-running: the driver advances ``chunk``
    sim-seconds per lock hold flat out, yielding between chunks but
    never sleeping — the mode tests and load generators want.

    ``max_queue_depth`` bounds admission per site: when the target
    coordinator already has that many unplaced requests, ``POST
    /jobs`` answers ``429`` with a ``Retry-After`` hint instead of
    piling on.
    """

    handler_class = _ServerHandler

    def __init__(self, scenario: ScenarioSpec, seed: int = 0,
                 host: str = "127.0.0.1", port: int = 0,
                 time_scale: Optional[float] = None,
                 max_queue_depth: int = 64,
                 chunk: float = 30.0,
                 trace: Optional[bool] = None):
        if time_scale is not None and time_scale <= 0:
            raise ValueError("time_scale must be positive (or None)")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        self.compiled: CompiledScenario = compile_scenario(
            scenario, seed=seed, trace=trace)
        self.deployment = self.compiled.deployment
        self.time_scale = time_scale
        self.max_queue_depth = max_queue_depth
        self.chunk = chunk
        super().__init__(FleetCollector(self.deployment),
                         host=host, port=port)
        self.metrics = MetricRegistry()
        self._requests = self.metrics.counter(
            "server_requests_total", "HTTP requests served, by route/code")
        self._submitted = self.metrics.counter(
            "server_jobs_submitted_total", "Jobs accepted via POST /jobs")
        self._rejected = self.metrics.counter(
            "server_jobs_rejected_total",
            "Submissions refused with 429 (admission backpressure)")
        self._cancelled = self.metrics.counter(
            "server_jobs_cancelled_total", "Jobs cancelled via DELETE")
        self._sim_time = self.metrics.gauge(
            "server_sim_time_seconds", "Simulation clock, seconds")
        self._pressure = self.metrics.gauge(
            "server_queue_pressure", "Unplaced requests per site")
        self._api_jobs: Dict[str, str] = {}  # job_id -> origin site
        self._sequence = 0
        self._driver: Optional[threading.Thread] = None
        self._stop_driving = threading.Event()
        self._wall_start = 0.0
        self._sim_start = 0.0
        self._driver_error: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> str:
        """Serve HTTP and start driving the simulation clock."""
        url = super().start()
        if self._driver is None:
            self._stop_driving.clear()
            self._wall_start = time.monotonic()
            self._sim_start = self.deployment.env.now
            self._driver = threading.Thread(
                target=self._drive, name=f"sim-driver:{self.port}",
                daemon=True)
            self._driver.start()
        return url

    def stop(self) -> None:
        """Stop the driver thread, then the HTTP server."""
        if self._driver is not None:
            self._stop_driving.set()
            self._driver.join(timeout=10.0)
            self._driver = None
        super().stop()

    def _handler_attrs(self) -> dict:
        attrs = super()._handler_attrs()
        attrs["sim"] = self
        return attrs

    def _drive(self) -> None:
        """Advance the sim clock toward its wall-clock target.

        An exception out of the simulation ends the thread (the default
        thread hook prints it) and is kept for :meth:`audit`.

        The driver yields the GIL after every chunk that ran events.
        A yield is a ``sleep(0)``, tens of microseconds, while a chunk
        with nothing due only moves the clock, so such chunks run back
        to back until they have cost as long as the last yield took.
        """
        stepped = yielded = 0.0
        try:
            while not self._stop_driving.is_set():
                caught_up = False
                started = time.perf_counter()
                with self.lock:
                    env = self.deployment.env
                    now = env.now
                    until = now + self.chunk
                    if self.time_scale is not None:
                        elapsed = time.monotonic() - self._wall_start
                        target = self._sim_start + elapsed * self.time_scale
                        caught_up = target <= until
                        until = min(until, target)
                    busy = env.peek() <= until
                    if until > now:
                        self.deployment.run(until=until)
                # Out of the lock, so request threads get it between
                # chunks.  Free-running, or scaled and still behind its
                # wall-clock target, the driver only yields the GIL; a
                # scaled clock that has caught up waits out the gap.
                if caught_up:
                    self._stop_driving.wait(0.02)
                    continue
                stepped += time.perf_counter() - started
                if busy or stepped >= yielded:
                    started = time.perf_counter()
                    time.sleep(0)
                    yielded = time.perf_counter() - started
                    stepped = 0.0
        except BaseException as error:
            self._driver_error = error
            raise

    def run_until_idle(self, extra: float = 5 * MINUTE,
                       timeout: float = 60.0) -> None:
        """Block (wall-clock) until every API job reaches a terminal
        status, then let the sim run ``extra`` seconds to settle
        transfers.  Free-running test/demo convenience."""
        deadline = time.monotonic() + timeout
        pending: List[str] = list(self._api_jobs)
        while time.monotonic() < deadline:
            if self._driver_error is not None:
                raise RuntimeError(
                    "the simulation driver stopped") from self._driver_error
            with self.lock:
                pending = [job_id for job_id in self._api_jobs
                           if self._status_of(job_id) not in
                           TERMINAL_STATUSES]
                if not pending:
                    horizon = self.deployment.env.now + extra
                    self.deployment.run(until=horizon)
                    return
            time.sleep(0.01)
        raise TimeoutError(f"{len(pending)} job(s) still running "
                           f"after {timeout:.0f}s wall-clock")

    # -- the /jobs API (called with the lock held) -------------------------

    def route_jobs(self, method: str, path: str,
                   payload) -> Optional[Response]:
        """Resolve one ``/jobs`` request (lock already held)."""
        if path == "/jobs":
            if method == "POST":
                return self._submit(payload)
            if method == "GET":
                return _Handler._json_doc(200, {
                    "jobs": [self._job_doc(job_id)
                             for job_id in self._api_jobs]})
            return None
        job_id = path[len("/jobs/"):]
        if job_id not in self._api_jobs:
            return _Handler._json_doc(
                404, {"error": f"unknown job {job_id!r}"})
        if method == "GET":
            return _Handler._json_doc(200, self._job_doc(job_id))
        if method == "DELETE":
            return self._cancel(job_id)
        return None

    def _submit(self, payload) -> Response:
        if not isinstance(payload, dict):
            return _Handler._json_doc(
                400, {"error": "payload must be a JSON object"})
        try:
            site_name = payload.get("site")
            if site_name not in self.deployment.sites:
                raise ValueError(
                    f"site must be one of "
                    f"{sorted(self.deployment.sites)}, got {site_name!r}")
            model_name = payload.get("model", "resnet50-cifar")
            if model_name not in MODEL_CATALOG:
                raise ValueError(
                    f"model must be one of {sorted(MODEL_CATALOG)}, "
                    f"got {model_name!r}")
            compute_hours = payload.get("compute_hours", 0.5)
            if (isinstance(compute_hours, bool)
                    or not isinstance(compute_hours, (int, float))
                    or not compute_hours > 0):
                raise ValueError("compute_hours must be a positive number")
            unknown = set(payload) - {
                "site", "model", "compute_hours", "owner", "lab", "priority"}
            if unknown:
                raise ValueError(
                    f"unknown field(s) {sorted(unknown)}")
        except ValueError as error:
            return _Handler._json_doc(400, {"error": str(error)})

        pressure = self._site_pressure(site_name)
        if pressure >= self.max_queue_depth:
            self._rejected.inc()
            retry_after = max(1, min(
                30, (pressure - self.max_queue_depth) // 4 + 1))
            return _Handler._json_doc(429, {
                "error": f"site {site_name!r} queue is saturated "
                         f"({pressure} unplaced requests, "
                         f"bound {self.max_queue_depth})",
                "retry_after": retry_after,
            }, headers={"Retry-After": retry_after})

        self._sequence += 1
        job_id = f"api-{self._sequence:06d}"
        spec = TrainingJobSpec(
            job_id=job_id,
            model=MODEL_CATALOG[model_name],
            total_compute=float(compute_hours) * HOUR,
            owner=str(payload.get("owner", "api")),
            lab=str(payload.get("lab", "api")),
            priority=int(payload.get("priority", 5)),
        )
        self.deployment.site(site_name).platform.submit_job(spec)
        self._api_jobs[job_id] = site_name
        self._submitted.inc()
        return _Handler._json_doc(202, self._job_doc(job_id))

    def _cancel(self, job_id: str) -> Response:
        status = self._status_of(job_id)
        if status in TERMINAL_STATUSES:
            return _Handler._json_doc(409, {
                "error": f"job {job_id!r} already "
                         f"{status.value}",  # type: ignore[union-attr]
                "job": self._job_doc(job_id)})
        site = self._api_jobs[job_id]
        self.deployment.site(site).platform.coordinator.cancel_job(job_id)
        self._cancelled.inc()
        return _Handler._json_doc(200, self._job_doc(job_id))

    # -- snapshots (lock held) ---------------------------------------------

    def _coordinator(self, site: str):
        return self.deployment.site(site).platform.coordinator

    def _site_pressure(self, site: str) -> int:
        return self._coordinator(site).queue_pressure

    def _status_of(self, job_id: str) -> Optional[JobStatus]:
        state = self._coordinator(self._api_jobs[job_id]).jobs.get(job_id)
        return None if state is None else state.status

    def _job_doc(self, job_id: str) -> Dict[str, Any]:
        site = self._api_jobs[job_id]
        state = self._coordinator(site).jobs.get(job_id)
        if state is None:  # accepted but not yet booked (same tick)
            return {"job_id": job_id, "site": site, "status": "pending"}
        return {
            "job_id": job_id,
            "site": site,
            "status": state.status.value,
            "progress": round(min(
                1.0, state.progress / state.spec.total_compute), 6),
            "node": state.current_node,
            "migrations": state.migrations,
            "interruptions": state.interruption_count,
            "submitted_at_sim": round(state.submitted_at, 3),
            "sim_time": round(self.deployment.env.now, 3),
        }

    # -- server metrics (lock held via /metrics) ---------------------------

    def count_request(self, method: str, path: str, code: int) -> None:
        """Fold one served request into ``server_requests_total``."""
        if path.startswith("/jobs/"):
            family = "/jobs/<id>"
        elif path.startswith("/traces"):
            family = "/traces"
        else:
            family = path
        self._requests.inc(method=method, route=family, code=str(code))

    def server_metrics_text(self) -> str:
        """The ``server_*`` families, refreshed from live state."""
        self._sim_time.set(self.deployment.env.now)
        for name in self.deployment.sites:
            self._pressure.set(self._site_pressure(name), site=name)
        return self.metrics.expose()

    # -- invariants --------------------------------------------------------

    def audit(self) -> List[str]:
        """The standing invariants at the live sim instant (locks):
        ``driver: stopped by …`` if the simulation raised, then every
        line of the deployment's
        :meth:`~repro.federation.FederatedDeployment.audit`."""
        with self.lock:
            violations: List[str] = []
            if self._driver_error is not None:
                violations.append(
                    f"driver: stopped by {self._driver_error!r}")
            violations.extend(self.deployment.audit())
            return violations
