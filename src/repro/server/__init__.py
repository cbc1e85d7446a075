"""Run the simulated federation as a long-lived HTTP service.

:class:`SimulationServer` drives a compiled scenario on a wall-clock
mapping while serving a job-submission API (``POST /jobs`` with
admission backpressure, ``GET``/``DELETE /jobs/<id>``) and the full
observability surface (``/metrics``, ``/status``, ``/traces``) on one
port.  The repository benchmark's ``service-open-loop`` workload
(``perfbench/service.py``) drives it with open- and closed-loop load.
"""

from .server import SimulationServer, TERMINAL_STATUSES

__all__ = ["SimulationServer", "TERMINAL_STATUSES"]
