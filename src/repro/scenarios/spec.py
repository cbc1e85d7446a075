"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is the complete, serialisable description of
one federated experiment: campuses with heterogeneous GPU generations,
per-site or per-lab diurnal demand (with a timezone offset, so a
multi-campus federation's peaks roll around the clock), flash-crowd
interactive bursts, spot-style provider churn, and optional WAN-outage,
control-plane-crash and Byzantine fault windows.  Everything an
experiment script used to hand-code becomes data: build a spec in
Python, round-trip it through ``to_dict``/``from_dict`` (or JSON),
hand it to
:func:`~repro.scenarios.compile.compile_scenario` for a wired
:class:`~repro.federation.deployment.FederatedDeployment`, or to a
:class:`~repro.scenarios.runner.ScenarioRunner` for a seed sweep.

Parsing is strict: unknown keys and wrong types are rejected with
path-qualified messages (``scenario.sites[1].providers[0].gpus[2]:
unknown GPU generation 'rtx9999'``), because a silently-ignored typo
in a scenario file is a silently-different experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..federation.adversary import BYZANTINE_MODES
from ..federation.faults import CRASH_KINDS, FaultWindow
from ..gpu.specs import CATALOG
from ..units import HOUR, MINUTE
from ..workloads.models import MODEL_CATALOG


class ScenarioError(ValueError):
    """A scenario description that cannot be parsed or validated."""


# -- strict parsing helpers -------------------------------------------------


def _type_name(value: Any) -> str:
    return type(value).__name__


def _parse_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string, got "
                            f"{_type_name(value)} {value!r}")
    return value


def _parse_number(value: Any, path: str) -> float:
    # bool is an int subclass; a YAML/JSON `true` is never a rate.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got "
                            f"{_type_name(value)} {value!r}")
    return float(value)


def _parse_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got "
                            f"{_type_name(value)} {value!r}")
    return value


def _parse_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected true/false, got "
                            f"{_type_name(value)} {value!r}")
    return value


def _optional(parser: Callable) -> Callable:
    def parse(value: Any, path: str):
        if value is None:
            return None
        return parser(value, path)
    return parse


def _tuple_of(parser: Callable) -> Callable:
    def parse(value: Any, path: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(f"{path}: expected a list, got "
                                f"{_type_name(value)} {value!r}")
        return tuple(parser(item, f"{path}[{index}]")
                     for index, item in enumerate(value))
    return parse


def _parse_mapping(data: Any, path: str, field_parsers: Dict[str, Callable],
                   cls):
    """Build ``cls`` from ``data``, rejecting unknown keys and re-raising
    constructor ``ValueError``s with the offending path attached."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected a mapping, got "
                            f"{_type_name(data)} {data!r}")
    unknown = sorted(set(data) - set(field_parsers))
    if unknown:
        raise ScenarioError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected: {', '.join(sorted(field_parsers))}")
    kwargs = {}
    for key, parser in field_parsers.items():
        if key in data:
            kwargs[key] = parser(data[key], f"{path}.{key}")
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as error:
        # Missing required fields (TypeError) and constructor
        # validation (ValueError) both surface with the path attached.
        raise ScenarioError(f"{path}: {error}") from None


def _job_mix_entry(value: Any, path: str) -> Tuple[str, float]:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise ScenarioError(f"{path}: expected a [model, weight] pair, "
                            f"got {value!r}")
    name = _parse_str(value[0], f"{path}[0]")
    if name not in MODEL_CATALOG:
        raise ScenarioError(
            f"{path}[0]: unknown model {name!r}; known: "
            f"{', '.join(sorted(MODEL_CATALOG))}")
    weight = _parse_number(value[1], f"{path}[1]")
    if weight <= 0:
        raise ScenarioError(f"{path}[1]: mix weight must be positive, "
                            f"got {weight!r}")
    return (name, weight)


def _gpu_name(value: Any, path: str) -> str:
    name = _parse_str(value, path)
    if name not in CATALOG:
        raise ScenarioError(
            f"{path}: unknown GPU generation {name!r}; known: "
            f"{', '.join(sorted(CATALOG))}")
    return name


class _Spec:
    """Strict ``from_dict`` and plain-data ``to_dict`` for a spec class.

    Each spec declares ``_FIELDS`` (key → parser, in serialisation
    order) and ``_PATH`` (its name in error messages).
    """

    _FIELDS: Dict[str, Callable]
    _PATH: str

    @classmethod
    def from_dict(cls, data: Any, path: Optional[str] = None):
        """Parse a plain-dict spec, strictly."""
        return _parse_mapping(data, path or cls._PATH, cls._FIELDS, cls)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able dict that :meth:`from_dict` accepts unchanged."""
        return {key: _plain(getattr(self, key)) for key in self._FIELDS}


def _plain(value: Any) -> Any:
    if isinstance(value, _Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


# -- sub-specs --------------------------------------------------------------


@dataclass(frozen=True)
class ChurnSpec(_Spec):
    """Spot-style provider interruption habits (maps onto
    :class:`~repro.agent.behavior.BehaviorProfile`)."""

    events_per_day: float = 1.0
    p_scheduled: float = 0.4
    p_emergency: float = 0.3
    p_temporary: float = 0.3
    mean_downtime_minutes: float = 45.0
    mean_rejoin_minutes: float = 240.0

    def __post_init__(self):
        if self.events_per_day < 0:
            raise ValueError("events_per_day must be >= 0")
        total = self.p_scheduled + self.p_emergency + self.p_temporary
        if abs(total - 1.0) > 1e-9:
            raise ValueError("departure-class probabilities must sum to 1")
        if self.mean_downtime_minutes <= 0 or self.mean_rejoin_minutes <= 0:
            raise ValueError("downtime/rejoin means must be positive")

    _PATH = "churn"
    _FIELDS = {
        "events_per_day": _parse_number,
        "p_scheduled": _parse_number,
        "p_emergency": _parse_number,
        "p_temporary": _parse_number,
        "mean_downtime_minutes": _parse_number,
        "mean_rejoin_minutes": _parse_number,
    }


@dataclass(frozen=True)
class ProviderSpec(_Spec):
    """One provider host: a named server with a rack of GPUs.

    ``access_gbps`` is its link to the campus LAN (multi-GPU servers
    often sit on 10 Gbps).
    """

    name: str
    gpus: Tuple[str, ...]  # catalog keys; heterogeneous mixes welcome
    lab: str = "unassigned"
    churn: Optional[ChurnSpec] = None
    access_gbps: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("provider name must not be empty")
        if not self.gpus:
            raise ValueError("provider needs at least one GPU")
        if self.access_gbps <= 0:
            raise ValueError("access_gbps must be positive")
        for gpu in self.gpus:
            if gpu not in CATALOG:
                raise ValueError(
                    f"unknown GPU generation {gpu!r}; known: "
                    f"{', '.join(sorted(CATALOG))}")

    _PATH = "provider"
    _FIELDS = {
        "name": _parse_str,
        "gpus": _tuple_of(_gpu_name),
        "lab": _parse_str,
        "churn": _optional(ChurnSpec.from_dict),
        "access_gbps": _parse_number,
    }


@dataclass(frozen=True)
class DemandSpec(_Spec):
    """Steady-state demand one campus's users generate.

    ``jobs_per_day`` and ``sessions_per_day`` are the diurnal *peak*
    rates: the :class:`~repro.workloads.demand.DemandProcess` thins
    them by a raised cosine that averages 0.55, so a day brings about
    half the number written.
    ``timezone_offset_hours`` shifts the diurnal peak: a federation
    spanning timezones never has all its campuses peak simultaneously,
    which is exactly the imbalance federation exploits.
    """

    jobs_per_day: float = 0.0
    sessions_per_day: float = 0.0
    timezone_offset_hours: float = 0.0
    mean_job_compute_hours: float = 1.0
    job_mix: Tuple[Tuple[str, float], ...] = (("resnet50-cifar", 1.0),)

    def __post_init__(self):
        if self.jobs_per_day < 0 or self.sessions_per_day < 0:
            raise ValueError("demand rates must be non-negative")
        if self.mean_job_compute_hours <= 0:
            raise ValueError("mean_job_compute_hours must be positive")
        if not self.job_mix:
            raise ValueError("job_mix must not be empty")
        object.__setattr__(self, "job_mix",
                           tuple((name, float(weight))
                                 for name, weight in self.job_mix))
        for name, weight in self.job_mix:
            if name not in MODEL_CATALOG:
                raise ValueError(
                    f"unknown model {name!r}; known: "
                    f"{', '.join(sorted(MODEL_CATALOG))}")
            if weight <= 0:
                raise ValueError("mix weights must be positive")

    _PATH = "demand"
    _FIELDS = {
        "jobs_per_day": _parse_number,
        "sessions_per_day": _parse_number,
        "timezone_offset_hours": _parse_number,
        "mean_job_compute_hours": _parse_number,
        "job_mix": _tuple_of(_job_mix_entry),
    }


@dataclass(frozen=True)
class LabDemandSpec(_Spec):
    """The demand of one lab on a campus, planned from its own streams.

    Its jobs and sessions carry ``lab``, so a baseline that runs each
    lab on its own servers can route them.  ``lab: ""`` is the campus's
    unaffiliated users, who own no hardware (as flash crowds are).
    """

    lab: str
    demand: DemandSpec

    @property
    def tag(self) -> str:
        """The name its streams, ids and users are qualified with."""
        return self.lab or "unaffiliated"

    _PATH = "lab"
    _FIELDS = {
        "lab": _parse_str,
        "demand": DemandSpec.from_dict,
    }


@dataclass(frozen=True)
class SiteSpec(_Spec):
    """One campus: providers plus the demand its users generate.

    ``demand`` is the campus's users as one population; ``labs`` adds
    per-lab demand on top of it (both are peak rates).
    """

    name: str
    providers: Tuple[ProviderSpec, ...]
    demand: DemandSpec = DemandSpec()
    labs: Tuple[LabDemandSpec, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("site name must not be empty")
        if "/" in self.name:
            # "/" qualifies per-lab ids (sc-campus/vision-job-00003).
            raise ValueError(f"site name {self.name!r} must not contain '/'")
        if not self.providers:
            raise ValueError("site needs at least one provider")
        names = [p.name for p in self.providers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate provider names in site "
                             f"{self.name!r}: {sorted(names)}")
        tags = [lab.tag for lab in self.labs]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate labs in site {self.name!r}: "
                             f"{sorted(tags)}")

    _PATH = "site"
    _FIELDS = {
        "name": _parse_str,
        "providers": _tuple_of(ProviderSpec.from_dict),
        "demand": DemandSpec.from_dict,
        "labs": _tuple_of(LabDemandSpec.from_dict),
    }

    @property
    def gpu_count(self) -> int:
        """Total GPUs this campus contributes."""
        return sum(len(p.gpus) for p in self.providers)


@dataclass(frozen=True)
class FlashCrowdSpec(_Spec):
    """A burst of interactive sessions hitting one site at once.

    Models the "millions of users" demand shape: a lecture lets out, a
    deadline approaches, and a pile of notebook sessions arrives within
    ``spread_minutes`` of ``start_hour``.
    """

    site: str
    start_hour: float
    sessions: int
    spread_minutes: float = 10.0
    mean_session_minutes: float = 45.0

    def __post_init__(self):
        if self.start_hour < 0:
            raise ValueError("start_hour must be >= 0")
        if self.sessions < 1:
            raise ValueError("a flash crowd needs at least one session")
        if self.spread_minutes <= 0 or self.mean_session_minutes <= 0:
            raise ValueError("spread/duration minutes must be positive")

    _PATH = "flash_crowd"
    _FIELDS = {
        "site": _parse_str,
        "start_hour": _parse_number,
        "sessions": _parse_int,
        "spread_minutes": _parse_number,
        "mean_session_minutes": _parse_number,
    }


@dataclass(frozen=True)
class WanLinkSpec(_Spec):
    """A symmetric WAN link pair between two campuses."""

    a: str
    b: str
    capacity_gbps: Optional[float] = None  # None = topology default
    latency_ms: Optional[float] = None

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("a WAN link needs two distinct sites")
        if self.capacity_gbps is not None and self.capacity_gbps <= 0:
            raise ValueError("capacity_gbps must be positive")
        if self.latency_ms is not None and self.latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")

    _PATH = "link"
    _FIELDS = {
        "a": _parse_str,
        "b": _parse_str,
        "capacity_gbps": _optional(_parse_number),
        "latency_ms": _optional(_parse_number),
    }


@dataclass(frozen=True)
class OutageSpec(_Spec):
    """One WAN-sever window (a ``link``
    :class:`~repro.federation.faults.FaultWindow`)."""

    a: str
    b: str
    start_hour: float
    duration_minutes: float

    def __post_init__(self):
        self.window()

    def window(self) -> FaultWindow:
        """The fault window this spec declares."""
        return FaultWindow("link", (self.a, self.b), self.start_hour * HOUR,
                           self.duration_minutes * MINUTE)

    _PATH = "outage"
    _FIELDS = {
        "a": _parse_str,
        "b": _parse_str,
        "start_hour": _parse_number,
        "duration_minutes": _parse_number,
    }


@dataclass(frozen=True)
class CrashSpec(_Spec):
    """One control-plane crash window (a ``coordinator`` or ``gateway``
    :class:`~repro.federation.faults.FaultWindow`)."""

    site: str
    component: str  # "coordinator" | "gateway"
    start_hour: float
    downtime_minutes: float

    def __post_init__(self):
        if self.component not in CRASH_KINDS:
            raise ValueError("component must be 'coordinator' or 'gateway'")
        self.window()

    def window(self) -> FaultWindow:
        """The fault window this spec declares."""
        return FaultWindow(self.component, self.site, self.start_hour * HOUR,
                           self.downtime_minutes * MINUTE)

    _PATH = "crash"
    _FIELDS = {
        "site": _parse_str,
        "component": _parse_str,
        "start_hour": _parse_number,
        "downtime_minutes": _parse_number,
    }


@dataclass(frozen=True)
class AdversarySpec(_Spec):
    """One Byzantine misbehavior window (a
    :class:`~repro.federation.faults.FaultWindow` whose kind is the
    mode).

    Declaring any adversary turns share-chain ledger verification on
    for the whole scenario — an unobserved adversary is just noise.
    ``duration_hours=None`` misbehaves to the end of the run.
    """

    site: str
    mode: str  # one of repro.federation.adversary.BYZANTINE_MODES
    start_hour: float = 0.0
    duration_hours: Optional[float] = None

    def __post_init__(self):
        if self.mode not in BYZANTINE_MODES:
            raise ValueError(
                f"mode must be one of {', '.join(BYZANTINE_MODES)}; "
                f"got {self.mode!r}")
        self.window()

    def window(self) -> FaultWindow:
        """The fault window this spec declares."""
        return FaultWindow(self.mode, self.site, self.start_hour * HOUR,
                           None if self.duration_hours is None
                           else self.duration_hours * HOUR)

    _PATH = "adversary"
    _FIELDS = {
        "site": _parse_str,
        "mode": _parse_str,
        "start_hour": _parse_number,
        "duration_hours": _optional(_parse_number),
    }


# -- the scenario -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec(_Spec):
    """A complete federated experiment, as data."""

    name: str
    duration_hours: float
    sites: Tuple[SiteSpec, ...]
    links: Tuple[WanLinkSpec, ...] = ()
    flash_crowds: Tuple[FlashCrowdSpec, ...] = ()
    outages: Tuple[OutageSpec, ...] = ()
    crashes: Tuple[CrashSpec, ...] = ()
    adversaries: Tuple[AdversarySpec, ...] = ()
    max_forward_hops: int = 2
    admission_headroom_minutes: float = 0.0
    trace: bool = True
    #: Turn on share-chain ledger verification even with no declared
    #: adversary (the all-honest audit).  Off by default so existing
    #: scenarios compile to bit-identical runs.
    verify_ledger: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario name must not be empty")
        if self.duration_hours <= 0:
            raise ValueError("duration_hours must be positive")
        if not self.sites:
            raise ValueError("a scenario needs at least one site")
        if self.max_forward_hops < 1:
            raise ValueError("max_forward_hops must be >= 1")
        if self.admission_headroom_minutes < 0:
            raise ValueError("admission_headroom_minutes must be >= 0")
        names = [site.name for site in self.sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {sorted(names)}")
        known = set(names)

        def check_site(owner: str, site: str) -> None:
            if site not in known:
                raise ValueError(
                    f"{owner} references unknown site {site!r}; "
                    f"sites: {', '.join(sorted(known))}")

        seen_pairs = set()
        for link in self.links:
            check_site("link", link.a)
            check_site("link", link.b)
            pair = tuple(sorted((link.a, link.b)))
            if pair in seen_pairs:
                raise ValueError(f"duplicate link {pair[0]}<->{pair[1]}")
            seen_pairs.add(pair)
        for owner, items in (("flash_crowd", self.flash_crowds),
                             ("outage", self.outages),
                             ("crash", self.crashes),
                             ("adversary", self.adversaries)):
            for item in items:
                if owner == "outage":
                    check_site(owner, item.a)
                    check_site(owner, item.b)
                    if tuple(sorted((item.a, item.b))) not in seen_pairs:
                        raise ValueError(
                            f"outage severs {item.a}<->{item.b}, which is "
                            f"not a declared link")
                else:
                    check_site(owner, item.site)
                # A window opening at or after the horizon never fires.
                if item.start_hour >= self.duration_hours:
                    raise ValueError(
                        f"{owner} at hour {item.start_hour:g} starts "
                        f"after the scenario ends ({self.duration_hours:g}h)")

    _PATH = "scenario"
    _FIELDS = {
        "name": _parse_str,
        "duration_hours": _parse_number,
        "sites": _tuple_of(SiteSpec.from_dict),
        "links": _tuple_of(WanLinkSpec.from_dict),
        "flash_crowds": _tuple_of(FlashCrowdSpec.from_dict),
        "outages": _tuple_of(OutageSpec.from_dict),
        "crashes": _tuple_of(CrashSpec.from_dict),
        "adversaries": _tuple_of(AdversarySpec.from_dict),
        "max_forward_hops": _parse_int,
        "admission_headroom_minutes": _parse_number,
        "trace": _parse_bool,
        "verify_ledger": _parse_bool,
    }

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a JSON scenario document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"scenario: invalid JSON: {error}") from None
        return cls.from_dict(data)

    def to_json(self, indent: int = 2) -> str:
        """Serialise to JSON (round-trips through :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=indent)

    # -- conveniences ------------------------------------------------------

    def site(self, name: str) -> SiteSpec:
        """Lookup one site spec by name."""
        for site in self.sites:
            if site.name == name:
                return site
        raise KeyError(name)

    @property
    def total_gpus(self) -> int:
        """GPUs across every campus."""
        return sum(site.gpu_count for site in self.sites)


def example_scenario(duration_hours: float = 8.0,
                     trace: bool = True) -> ScenarioSpec:
    """A small but fully-featured demo scenario.

    Two timezone-offset campuses with heterogeneous GPU generations, a
    churning spot-style provider, diurnal demand, one flash crowd, and
    a short WAN outage — the example, the server smoke tests, and the
    docs all start here.
    """
    return ScenarioSpec(
        name="demo-flash-crowd",
        duration_hours=duration_hours,
        sites=(
            SiteSpec(
                name="north",
                providers=(
                    ProviderSpec(name="n-ws1", gpus=("rtx3090",),
                                 lab="vision"),
                    ProviderSpec(name="n-ws2", gpus=("rtx2080ti", "rtx3090"),
                                 lab="nlp"),
                ),
                demand=DemandSpec(
                    jobs_per_day=18.0, sessions_per_day=10.0,
                    mean_job_compute_hours=0.5,
                    job_mix=(("resnet50-cifar", 2.0),
                             ("unet-segmentation", 1.0)),
                ),
            ),
            SiteSpec(
                name="south",
                providers=(
                    ProviderSpec(name="s-farm", gpus=("rtx4090",) * 3,
                                 lab="infra"),
                    ProviderSpec(
                        name="s-spot", gpus=("a6000",), lab="infra",
                        churn=ChurnSpec(events_per_day=3.0,
                                        mean_downtime_minutes=30.0,
                                        mean_rejoin_minutes=60.0),
                    ),
                ),
                demand=DemandSpec(
                    jobs_per_day=6.0, sessions_per_day=4.0,
                    timezone_offset_hours=8.0,
                    mean_job_compute_hours=0.5,
                ),
            ),
        ),
        links=(WanLinkSpec(a="north", b="south"),),
        flash_crowds=(
            FlashCrowdSpec(site="north", start_hour=2.0, sessions=12,
                           spread_minutes=8.0, mean_session_minutes=30.0),
        ),
        outages=(
            OutageSpec(a="north", b="south", start_hour=4.0,
                       duration_minutes=20.0),
        ),
        trace=trace,
    )
