"""Site-local admission control for foreign work.

PR 1's gateways accepted foreign jobs on a naive queue-pressure
threshold: any fully-idle GPU was up for grabs, even when the home
campus's own demand was about to need it.  The
:class:`AdmissionController` closes that gap by *forecasting* home
demand from the campus's recent submission stream and reserving that
headroom before any foreign offer is accepted.

The forecast is deliberately cheap and online — two exponentially
weighted moving averages over the ``job-submitted`` event stream (the
campus's planned arrivals):

* the **inter-arrival gap** between home training submissions, whose
  reciprocal is the arrival rate λ;
* the **service time** of those submissions (requested GPU-seconds),
  bounding how long each arrival will hold a card.

Expected home demand over the configured horizon ``H`` is then the
number of arrivals predicted to land *and still be running*::

    reserved_gpus = round(λ · min(H, ewma_service))

which is Little's-law offered load when ``H`` covers a full service
time, and a plain arrival count for shorter horizons.  The gap
estimate is floored at the time since the last arrival, so a burst
long past decays instead of reserving cards forever.

The reservation is enforced in one place — the gateway subtracts it
from its :class:`~repro.federation.messages.CapacityDigest` — so both
the gossiped advertisement peers score *and* the live admission check
on an incoming offer honour the same headroom.  A site that opts out
entirely (``host_foreign_jobs=False``) advertises zero spare capacity
and declines every offer, while still forwarding its own surplus out.
"""

from __future__ import annotations

from typing import Optional

from ..monitoring.events import PlatformEvent
from ..sim import Environment
from .policy import FederationConfig


class AdmissionController:
    """Forecasts home-campus demand and converts it into a GPU
    reservation foreign admission must leave untouched."""

    def __init__(self, env: Environment, config: FederationConfig,
                 jobs: Optional[dict] = None):
        self.env = env
        self.config = config
        #: The coordinator's job table, used to look a submission's
        #: requested compute up from its ``job-submitted`` event.
        self._jobs = jobs if jobs is not None else {}
        self._last_arrival: Optional[float] = None
        self._ewma_gap: Optional[float] = None
        self._ewma_service: Optional[float] = None
        self.observed_arrivals = 0

    # -- observation -------------------------------------------------------

    def on_event(self, event: PlatformEvent) -> None:
        """Event-log subscriber: watch the home submission stream.

        Only ``job-submitted`` counts — foreign arrivals come in as
        ``job-forwarded-in`` and must not inflate the *home* forecast
        (a site busy hosting would otherwise talk itself out of
        hosting more).
        """
        if event.kind != "job-submitted":
            return
        self.observe(event.payload.get("job_id"))

    def observe(self, job_id: Optional[str]) -> None:
        """Fold one home submission into the EWMA estimates."""
        now = self.env.now
        alpha = self.config.admission_ewma_alpha
        if self._last_arrival is not None:
            gap = max(now - self._last_arrival, 1e-9)
            if self._ewma_gap is None:
                self._ewma_gap = gap
            else:
                self._ewma_gap = alpha * gap + (1 - alpha) * self._ewma_gap
        self._last_arrival = now
        state = self._jobs.get(job_id)
        if state is not None:
            service = state.spec.total_compute
            if self._ewma_service is None:
                self._ewma_service = service
            else:
                self._ewma_service = (alpha * service
                                      + (1 - alpha) * self._ewma_service)
        self.observed_arrivals += 1

    # -- forecast ----------------------------------------------------------

    def arrival_rate(self) -> float:
        """Smoothed home-submission rate (jobs per second).

        Needs at least two arrivals to estimate a gap; the effective
        gap is floored at the silence since the last arrival, so the
        rate decays once the home campus goes quiet.
        """
        if self._ewma_gap is None or self._last_arrival is None:
            return 0.0
        gap = max(self._ewma_gap, self.env.now - self._last_arrival)
        return 1.0 / max(gap, 1e-9)

    def mean_service_seconds(self) -> float:
        """Smoothed requested compute per home submission (seconds)."""
        return self._ewma_service or 0.0

    def reserved_headroom(self) -> int:
        """GPUs to hold back for predicted home demand, right now."""
        horizon = self.config.admission_headroom_horizon
        if horizon <= 0:
            return 0
        window = min(horizon, self.mean_service_seconds() or horizon)
        return int(round(self.arrival_rate() * window))
