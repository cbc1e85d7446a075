"""Fleet-wide telemetry aggregation.

The paper's §3.5 exporters are per-node; this module adds the layer
above them: a :class:`FleetCollector` that walks a running
:class:`~repro.federation.deployment.FederatedDeployment` and folds

* every provider's :class:`~repro.monitoring.exporter.NodeExporter`
  registry (hardware + container families, re-labelled with the
  campus),
* gateway counters (forwards, relays, declines, gossip rounds,
  digest deliveries, reconciliation backlogs, admission headroom),
* RPC handler exceptions, campus and WAN,
* the credit ledger (balances, donations, relay fees),
* WAN link bytes/utilization/liveness, and
* tracer and kernel-profile summaries when attached

into one :class:`~repro.monitoring.metrics.MetricRegistry` with
per-campus (``site`` label) and federation-level families — the thing
a real deployment would point Prometheus at, and what the status
endpoint serves.

Collection is a pure read of simulation state: it never schedules
events or advances the clock, so scraping mid-run cannot perturb a
deterministic experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..monitoring.exporter import NodeExporter
from ..monitoring.metrics import MetricRegistry
from .hooks import KernelProfile

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..federation.deployment import FederatedDeployment


class FleetCollector:
    """Aggregates a federation's telemetry into one scrape target."""

    def __init__(self, deployment: "FederatedDeployment"):
        self.deployment = deployment
        self.scrapes = 0
        #: Lazily-created node exporters, keyed (site, hostname).  Kept
        #: across scrapes so counter cursors (container lifecycle)
        #: stay monotonic, and retained after a node departs — a real
        #: Prometheus keeps serving last-known series for a down
        #: target's neighbours too.
        self._exporters: Dict[Tuple[str, str], NodeExporter] = {}

    # -- node exporters ----------------------------------------------------

    def node_exporters(self) -> List[Tuple[str, NodeExporter]]:
        """``(site, exporter)`` for every provider in the federation."""
        rows: List[Tuple[str, NodeExporter]] = []
        for site, handle in self.deployment.sites.items():
            for hostname, agent in handle.platform.agents.items():
                key = (site, hostname)
                exporter = self._exporters.get(key)
                if exporter is None:
                    exporter = NodeExporter(handle.platform.env, agent.node,
                                            runtime=agent.runtime)
                    self._exporters[key] = exporter
                rows.append((site, exporter))
        return rows

    # -- collection --------------------------------------------------------

    def collect(self) -> MetricRegistry:
        """One fleet scrape: a fresh registry of every family.

        Rebuilt per scrape (sources hold the durable state), so the
        output always reflects *now* and departed nodes cannot leave
        stale gauge children behind at the fleet level.
        """
        self.scrapes += 1
        reg = MetricRegistry()
        now = self.deployment.env.now
        reg.gauge("fleet_sim_time_seconds",
                  "Simulation clock at scrape time").set(now)
        self._collect_nodes(reg)
        self._collect_campuses(reg)
        self._collect_federation(reg)
        self._collect_rpc(reg)
        self._collect_wan(reg, now)
        self._collect_sharechain(reg)
        self._collect_qos(reg)
        self._collect_tracing(reg)
        self._collect_kernel(reg)
        return reg

    def _collect_nodes(self, reg: MetricRegistry) -> None:
        """Fold per-node exporter families in, adding the site label."""
        for site, exporter in self.node_exporters():
            for name in exporter.collect().names:
                family = exporter.registry.get(name)
                if family.kind == "counter":
                    fleet = reg.counter(name, family.help_text)
                else:
                    fleet = reg.gauge(name, family.help_text)
                for _sample, labels, value in family.samples():
                    child = dict(labels)
                    child["site"] = site
                    if family.kind == "counter":
                        fleet.inc(value, **child)
                    else:
                        fleet.set(value, **child)

    def _collect_campuses(self, reg: MetricRegistry) -> None:
        running = reg.gauge("campus_jobs_running",
                            "Workloads currently placed on providers")
        pressure = reg.gauge("campus_queue_pressure",
                             "Requests queued or parked, per campus")
        parked = reg.gauge("campus_parked_requests",
                           "Requests parked awaiting capacity")
        nodes = reg.gauge("campus_nodes_registered",
                          "Provider nodes the coordinator knows")
        util = reg.gauge("campus_gpu_utilization",
                         "Mean GPU utilization across the campus fleet")
        events = reg.counter("campus_platform_events_total",
                             "Control-plane events the campus emitted")
        for site, handle in self.deployment.sites.items():
            coordinator = handle.platform.coordinator
            running.set(coordinator.running_count, site=site)
            pressure.set(coordinator.queue_pressure, site=site)
            parked.set(coordinator.parked_count, site=site)
            nodes.set(coordinator.registry.count, site=site)
            util.set(handle.platform.fleet_utilization(), site=site)
            events.inc(len(handle.platform.events), site=site)

    def _collect_federation(self, reg: MetricRegistry) -> None:
        fwd_out = reg.counter("federation_forwarded_out_total",
                              "Jobs this site delegated across the WAN")
        fwd_in = reg.counter("federation_forwarded_in_total",
                             "Foreign jobs this site committed to host")
        relayed = reg.counter("federation_relayed_out_total",
                              "Foreign jobs re-forwarded onward (relays)")
        declined = reg.counter("federation_declined_total",
                               "Forward offers declined by peers")
        gossip = reg.counter("federation_gossip_rounds_total",
                             "Gossip ticks that targeted at least one "
                             "neighbour, delivered or not")
        pushed = reg.counter("federation_digests_pushed_total",
                             "Capacity digests delivered to neighbours")
        push_failed = reg.counter("federation_digest_push_failures_total",
                                  "Capacity digest pushes that failed")
        transfer = reg.counter("federation_wan_transfer_seconds_total",
                               "Sim seconds spent on WAN replication")
        hosted = reg.gauge("federation_hosted_foreign_jobs",
                           "Foreign jobs currently hosted")
        unresolved = reg.gauge("federation_unresolved_delegations",
                               "Delegations parked as unknown outcome")
        cancels = reg.gauge("federation_pending_cancels",
                            "Cancellations awaiting WAN delivery")
        unacked = reg.gauge("federation_unacked_completions",
                            "Completion notices not yet acknowledged")
        headroom = reg.gauge("federation_admission_reserved_gpus",
                             "GPUs the admission controller holds back")
        balance = reg.gauge("ledger_credit_balance_gpu_hours",
                            "Net GPU-hour credit balance")
        donated = reg.counter("ledger_donated_gpu_hours_total",
                              "GPU-hours donated to foreign jobs")
        consumed = reg.counter("ledger_consumed_gpu_hours_total",
                               "GPU-hours consumed at other sites")
        fees = reg.counter("ledger_relay_fees_gpu_hours_total",
                           "GPU-hour relay fees earned")
        ledger = self.deployment.ledger
        for site, handle in self.deployment.sites.items():
            gateway = handle.gateway
            forward = gateway.forward
            fwd_out.inc(forward.forwarded_out, site=site)
            fwd_in.inc(forward.forwarded_in, site=site)
            relayed.inc(forward.relayed_out, site=site)
            declined.inc(forward.declined, site=site)
            gossip.inc(gateway.gossip.gossip_rounds, site=site)
            pushed.inc(gateway.gossip.digests_pushed, site=site)
            push_failed.inc(gateway.gossip.digest_push_failures, site=site)
            transfer.inc(forward.wan_transfer_seconds, site=site)
            hosted.set(gateway.hosted_foreign_count, site=site)
            unresolved.set(gateway.unresolved_delegations, site=site)
            cancels.set(gateway.pending_cancel_count, site=site)
            unacked.set(gateway.unacked_completion_count, site=site)
            headroom.set(gateway.admission.reserved_headroom(), site=site)
            balance.set(ledger.balance(site), site=site)
            donated.inc(ledger.donated(site), site=site)
            consumed.inc(ledger.consumed(site), site=site)
            fees.inc(ledger.relay_fees_earned(site), site=site)
        reg.gauge("fleet_sites", "Campuses in the federation").set(
            len(self.deployment.sites))
        reg.gauge("fleet_gpu_utilization",
                  "GPU-weighted mean utilization, federation-wide").set(
            self.deployment.aggregate_utilization())
        reg.counter("fleet_forwarded_total",
                    "Jobs that crossed the WAN, federation-wide").inc(
            self.deployment.total_forwarded())
        reg.counter("fleet_wan_bytes_total",
                    "Bytes carried across all WAN links").inc(
            self.deployment.wan_bytes())

    def _collect_rpc(self, reg: MetricRegistry) -> None:
        """Handler exceptions each RPC layer turned into remote errors
        (every campus LAN's, and the WAN's)."""
        errors = reg.counter("rpc_handler_errors_total",
                             "RPC handler exceptions returned to the "
                             "caller as remote errors, by method and "
                             "exception type")
        layers = [(handle.platform.rpc, {"layer": "campus", "site": site})
                  for site, handle in self.deployment.sites.items()]
        layers.append((self.deployment.wan_rpc, {"layer": "wan"}))
        for rpc, labels in layers:
            for (method, error), count in sorted(rpc.handler_errors.items()):
                errors.inc(count, method=method, error=error, **labels)

    def _collect_sharechain(self, reg: MetricRegistry) -> None:
        """Share-chain verification families — registered only when at
        least one gateway verifies, so non-verifying fleets expose no
        empty families."""
        verifying = [(site, handle.gateway)
                     for site, handle in self.deployment.sites.items()
                     if handle.gateway.sharechain is not None]
        if not verifying:
            return
        height = reg.gauge("ledger_chain_height",
                           "Accepted share-chain entries in this "
                           "site's verified view")
        rejected = reg.counter("ledger_entries_rejected_total",
                               "Chain entries this site refused, by "
                               "verification failure reason")
        quarantined = reg.gauge("sites_quarantined",
                                "Peers this site currently blocks "
                                "(quarantined or evicted)")
        for site, gateway in verifying:
            height.set(gateway.sharechain.height(), site=site)
            for reason, count in sorted(gateway.sharechain.rejected.items()):
                rejected.inc(count, site=site, reason=reason)
            quarantined.set(len(gateway.trust.blocked()), site=site)

    def _collect_wan(self, reg: MetricRegistry, now: float) -> None:
        link_bytes = reg.counter("wan_link_bytes_total",
                                 "Bytes carried per WAN link")
        link_util = reg.gauge("wan_link_utilization",
                              "Mean link utilization since t=0")
        link_up = reg.gauge("wan_link_up",
                            "Whether the link is currently up")
        for link in self.deployment.wan.links:
            link_bytes.inc(link.bytes_carried, link=link.name)
            if now > 0:
                link_util.set(link.utilization(now), link=link.name)
            link_up.set(1.0 if link.up else 0.0, link=link.name)

    def _collect_qos(self, reg: MetricRegistry) -> None:
        """Per-class WAN fabric families (QoS-enabled deployments)."""
        fabric = self.deployment.fabric
        if fabric.qos is None:
            return
        cls_bytes = reg.counter("wan_class_bytes_total",
                                "Bytes delivered per traffic class")
        cls_started = reg.counter("wan_class_flows_started_total",
                                  "Transfers issued per traffic class")
        cls_rate = reg.gauge("wan_class_rate_bytes_per_sec",
                             "Allocated rate per traffic class")
        for cls in sorted(fabric.class_bytes):
            cls_bytes.inc(fabric.class_bytes[cls], **{"class": cls})
            cls_started.inc(fabric.class_flows_started.get(cls, 0),
                            **{"class": cls})
            cls_rate.set(fabric.class_rate(cls), **{"class": cls})
        reg.counter("wan_flows_migrated_total",
                    "In-flight flows re-pinned onto recomputed routes"
                    ).inc(fabric.flows_migrated)
        autorate = self.deployment.autorate
        if autorate is not None:
            reg.gauge("wan_autorate_engaged",
                      "Whether bulk pacing currently holds a cap").set(
                1.0 if autorate.engaged else 0.0)
            reg.counter("wan_autorate_backoffs_total",
                        "Multiplicative decreases applied to bulk").inc(
                autorate.backoffs)
            reg.counter("wan_autorate_recoveries_total",
                        "Cap recoveries after sustained calm").inc(
                autorate.recoveries)
            reg.gauge("wan_control_rtt_inflation",
                      "Last sampled worst-link control RTT inflation").set(
                autorate.last_inflation)
            if autorate.cap is not None:
                reg.gauge("wan_autorate_bulk_cap_bytes_per_sec",
                          "Active bulk-class rate cap").set(autorate.cap)

    def _collect_tracing(self, reg: MetricRegistry) -> None:
        tracer = self.deployment.tracer
        if tracer is None:
            return
        reg.gauge("trace_spans", "Spans recorded").set(len(tracer))
        reg.gauge("trace_traces", "Distinct traces recorded").set(
            len(tracer.trace_ids()))
        reg.gauge("trace_open_spans", "Spans still running").set(
            len(tracer.open_spans()))
        reg.gauge("trace_orphan_spans",
                  "Spans whose parent was never recorded").set(
            len(tracer.orphans()))

    def _collect_kernel(self, reg: MetricRegistry) -> None:
        hooks = self.deployment.env.hooks
        if not isinstance(hooks, KernelProfile):
            return
        for name in (profile_reg := hooks.registry()).names:
            family = profile_reg.get(name)
            if family.kind == "counter":
                fleet = reg.counter(name, family.help_text)
                for _sample, labels, value in family.samples():
                    fleet.inc(value, **dict(labels))
            else:
                fleet = reg.gauge(name, family.help_text)
                for _sample, labels, value in family.samples():
                    fleet.set(value, **dict(labels))

    def expose(self) -> str:
        """One fleet scrape in Prometheus text exposition format."""
        return self.collect().expose()

    # -- JSON status -------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The ``/status`` document: a JSON fleet overview."""
        deployment = self.deployment
        sites: Dict[str, Any] = {}
        for site, handle in deployment.sites.items():
            coordinator = handle.platform.coordinator
            gateway = handle.gateway
            sites[site] = {
                "nodes": coordinator.registry.count,
                "jobs_running": coordinator.running_count,
                "queue_pressure": coordinator.queue_pressure,
                "parked": coordinator.parked_count,
                "gpu_utilization": round(
                    handle.platform.fleet_utilization(), 4),
                "forwarded_out": gateway.forward.forwarded_out,
                "forwarded_in": gateway.forward.forwarded_in,
                "relayed_out": gateway.forward.relayed_out,
                "declined": gateway.forward.declined,
                "hosted_foreign": gateway.hosted_foreign_count,
                "unresolved_delegations": gateway.unresolved_delegations,
                "pending_cancels": gateway.pending_cancel_count,
                "unacked_completions": gateway.unacked_completion_count,
                "credit_balance": round(
                    deployment.ledger.balance(site), 4),
            }
        status: Dict[str, Any] = {
            "sim_time": deployment.env.now,
            "sites": sites,
            "wan": {
                "links": [
                    {"link": link.name, "up": link.up,
                     "bytes": link.bytes_carried}
                    for link in deployment.wan.links
                ],
                "severed_pairs": sorted(
                    "|".join(pair)
                    for pair in deployment.wan.severed_pairs()),
            },
            "unresolved": deployment.unresolved_count(),
        }
        fabric = deployment.fabric
        if fabric.qos is not None:
            qos: Dict[str, Any] = {
                "class_bytes": {cls: round(value, 2) for cls, value
                                in sorted(fabric.class_bytes.items())},
                "class_flows_started": dict(
                    sorted(fabric.class_flows_started.items())),
                "flows_migrated": fabric.flows_migrated,
            }
            autorate = deployment.autorate
            if autorate is not None:
                qos["autorate"] = {
                    "engaged": autorate.engaged,
                    "backoffs": autorate.backoffs,
                    "recoveries": autorate.recoveries,
                    "last_inflation": round(autorate.last_inflation, 4),
                    "cap": autorate.cap,
                }
            status["qos"] = qos
        chains: Dict[str, Any] = {}
        for site, handle in deployment.sites.items():
            gateway = handle.gateway
            if gateway.sharechain is None:
                continue
            chains[site] = {
                "height": gateway.sharechain.height(),
                "rejected": dict(sorted(gateway.sharechain.rejected.items())),
                "rejected_total": gateway.sharechain.rejected_total,
                "blocked_peers": gateway.trust.blocked(),
                "peer_states": {
                    peer: gateway.trust.state(peer).value
                    for peer in sorted(gateway.trust.excluded())},
            }
        if chains:
            status["sharechain"] = chains
        tracer = deployment.tracer
        if tracer is not None:
            status["traces"] = {
                "count": len(tracer.trace_ids()),
                "spans": len(tracer),
                "open_spans": len(tracer.open_spans()),
                "orphan_spans": len(tracer.orphans()),
            }
        hooks = deployment.env.hooks
        if isinstance(hooks, KernelProfile):
            status["kernel"] = hooks.report()
        return status
