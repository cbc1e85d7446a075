"""Fleet collector and the live status endpoint, over real HTTP."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.federation import FederatedDeployment
from repro.gpu import RTX_3090, RTX_4090
from repro.observability import (
    PROMETHEUS_CONTENT_TYPE,
    FleetCollector,
    KernelProfile,
    StatusEndpoint,
)
from repro.units import HOUR
from repro.workloads import RESNET50, next_job_id
from repro.workloads.training import TrainingJobSpec


def build_fleet(trace=True, hooks=None):
    """Two campuses, jobs crossing the WAN, run for a few sim-hours."""
    fed = FederatedDeployment(seed=9, trace=trace, hooks=hooks)
    north = fed.add_campus("north")
    south = fed.add_campus("south")
    fed.connect("north", "south")
    north.platform.add_provider("ws1", [RTX_3090], lab="vision")
    south.platform.add_provider("farm", [RTX_4090] * 2, lab="infra")
    for _ in range(3):
        north.platform.submit_job(TrainingJobSpec(
            job_id=next_job_id(), model=RESNET50,
            total_compute=0.5 * HOUR, lab="vision"))
    fed.run(until=4 * HOUR)
    return fed


def get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers, response.read().decode()


# -- collector -------------------------------------------------------------

def test_collect_has_campus_federation_and_wan_families():
    fed = build_fleet()
    collector = FleetCollector(fed)
    reg = collector.collect()
    for family in (
        "fleet_sim_time_seconds", "fleet_sites", "fleet_gpu_utilization",
        "campus_jobs_running", "campus_gpu_utilization",
        "campus_nodes_registered",
        "federation_forwarded_out_total", "federation_forwarded_in_total",
        "ledger_credit_balance_gpu_hours",
        "wan_link_bytes_total", "wan_link_up",
        "gpu_utilization",  # node-exporter family, folded in
        "trace_spans", "trace_orphan_spans",
    ):
        assert family in reg.names, family


def test_per_campus_labels_and_fleet_rollup():
    fed = build_fleet()
    reg = FleetCollector(fed).collect()
    fwd = reg.get("federation_forwarded_out_total")
    assert fwd.value(site="north") > 0
    assert fwd.value(site="south") == 0
    assert reg.get("fleet_sites").value() == 2
    # Node families carry both the node labels and the campus label.
    util = reg.get("gpu_utilization")
    samples = list(util.samples())
    assert samples
    for _name, labels, _value in samples:
        assert dict(labels)["site"] in {"north", "south"}


def test_gossip_families_count_rounds_deliveries_and_failures():
    fed = build_fleet(trace=False)
    # Severed for longer than one refresh: every side's next push fails.
    fed.sever("north", "south")
    fed.run(until=fed.env.now + 600.0)
    reg = FleetCollector(fed).collect()
    rounds = reg.get("federation_gossip_rounds_total")
    pushed = reg.get("federation_digests_pushed_total")
    failed = reg.get("federation_digest_push_failures_total")
    for site, handle in fed.sites.items():
        gateway = handle.gateway
        assert pushed.value(site=site) == gateway.gossip.digests_pushed > 0
        assert failed.value(site=site) == (
            gateway.gossip.digest_push_failures) > 0
        # One neighbour each: every round is one delivery or one
        # failure, and a round whose push failed still counts.
        assert rounds.value(site=site) == gateway.gossip.gossip_rounds == (
            gateway.gossip.digests_pushed
            + gateway.gossip.digest_push_failures)


def test_rpc_handler_errors_reach_fleet_scrape():
    """A raising handler fails its call with a remote error and is
    counted, per layer, method and exception type."""
    fed = FederatedDeployment(seed=9)
    north = fed.add_campus("north")
    fed.add_campus("south")
    fed.connect("north", "south")
    north.platform.add_provider("ws1", [RTX_3090], lab="vision")

    def broken(payload):
        raise ZeroDivisionError("bad ratio")

    north.platform.rpc.bind("coordinator").register("probe", broken)
    fed.wan_rpc.bind("south").register("probe", broken)
    calls = [north.platform.rpc.call("ws1", "coordinator", "probe"),
             north.platform.rpc.call("ws1", "coordinator", "probe"),
             fed.wan_rpc.call("north", "south", "probe")]
    fed.run(until=60.0)
    assert not any(call.ok for call in calls)
    reg = FleetCollector(fed).collect()
    errors = reg.get("rpc_handler_errors_total")
    assert errors.value(layer="campus", site="north", method="probe",
                        error="ZeroDivisionError") == 2
    assert errors.value(layer="wan", method="probe",
                        error="ZeroDivisionError") == 1
    assert len(errors.samples()) == 2  # no other handler raised
    assert ('rpc_handler_errors_total{error="ZeroDivisionError",'
            'layer="wan",method="probe"} 1.0') in FleetCollector(fed).expose()


def test_node_exporters_cached_and_survive_departure():
    fed = build_fleet()
    collector = FleetCollector(fed)
    collector.collect()
    first = dict(collector._exporters)
    north = fed.site("north")
    north.platform.agents["ws1"].emergency_departure()
    fed.run(until=fed.env.now + 60.0)
    # Scraping a fleet with a departed node must not raise, and the
    # cached exporter objects persist (counter cursors stay monotonic).
    reg = collector.collect()
    assert collector._exporters == first
    # The departed workstation still exposes its last-known hardware
    # series; its workload was reclaimed by the coordinator.
    assert reg.get("gpu_utilization").samples()
    assert reg.get("campus_jobs_running").value(site="north") == 0


def test_collect_is_a_pure_read():
    fed = build_fleet()
    collector = FleetCollector(fed)
    before_now = fed.env.now
    before_events = sum(handle.platform.events.emitted
                       for handle in fed.sites.values())
    for _ in range(3):
        collector.collect()
        collector.status()
        collector.expose()
    assert fed.env.now == before_now
    after_events = sum(handle.platform.events.emitted
                      for handle in fed.sites.values())
    assert after_events == before_events
    # expose() is itself a scrape; status() is not.
    assert collector.scrapes == 6


def test_status_document_shape():
    fed = build_fleet(hooks=KernelProfile())
    status = FleetCollector(fed).status()
    assert set(status["sites"]) == {"north", "south"}
    north = status["sites"]["north"]
    assert north["forwarded_out"] > 0
    assert status["wan"]["links"]
    assert status["unresolved"] == 0
    assert status["traces"]["orphan_spans"] == 0
    assert status["kernel"]["events_dispatched"] > 0
    json.dumps(status)  # must be JSON-serializable as-is


def test_kernel_profile_families_reach_fleet_scrape():
    fed = build_fleet(hooks=KernelProfile())
    text = FleetCollector(fed).expose()
    assert "sim_events_dispatched_total" in text
    assert "flow_reallocations_total" in text


# -- endpoint --------------------------------------------------------------

@pytest.fixture()
def served():
    fed = build_fleet()
    endpoint = StatusEndpoint(FleetCollector(fed))
    url = endpoint.start()
    yield fed, url
    endpoint.stop()


def test_metrics_route(served):
    fed, url = served
    code, headers, body = get(url + "/metrics")
    assert code == 200
    assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
    assert "# TYPE campus_jobs_running gauge" in body
    assert "# TYPE federation_forwarded_out_total counter" in body
    for family in ("campus_gpu_utilization", "wan_link_up",
                   "fleet_gpu_utilization", "gpu_utilization",
                   "trace_orphan_spans"):
        assert f"# TYPE {family} " in body, family
    assert 'site="north"' in body and 'site="south"' in body
    assert body.endswith("\n")


def test_status_route(served):
    fed, url = served
    code, headers, body = get(url + "/status")
    assert code == 200
    document = json.loads(body)
    assert document["sim_time"] == fed.env.now
    assert set(document["sites"]) == {"north", "south"}


def test_traces_routes(served):
    fed, url = served
    _code, _headers, body = get(url + "/traces")
    index = json.loads(body)
    assert index["tracing"] is True
    assert index["traces"]
    assert all(row["orphans"] == 0 for row in index["traces"])
    trace_id = index["traces"][0]["trace_id"]
    _code, _headers, body = get(f"{url}/traces/{trace_id}")
    document = json.loads(body)
    assert document["trace_id"] == trace_id
    assert document["tree"][0]["name"] in {"job", "session"}
    _code, _headers, body = get(f"{url}/traces/{trace_id}/chrome")
    chrome = json.loads(body)
    assert chrome["traceEvents"]


def test_unknown_routes_are_404(served):
    fed, url = served
    for path in ("/nope", "/traces/job-does-not-exist"):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(url + path)
        assert err.value.code == 404


def test_tracing_disabled_trace_routes(served=None):
    fed = build_fleet(trace=False)
    with StatusEndpoint(FleetCollector(fed)) as endpoint:
        _code, _headers, body = get(endpoint.url + "/traces")
        assert json.loads(body) == {"tracing": False, "traces": []}
        with pytest.raises(urllib.error.HTTPError) as err:
            get(endpoint.url + "/traces/anything")
        assert err.value.code == 404


def test_endpoint_restart_and_ephemeral_ports():
    fed = build_fleet(trace=False)
    endpoint = StatusEndpoint(FleetCollector(fed))
    first = endpoint.start()
    assert endpoint.start() == first  # idempotent while running
    endpoint.stop()
    endpoint.stop()  # idempotent when already stopped


def test_two_concurrent_requests_both_succeed(served):
    """The threaded server answers overlapping scrapes in parallel."""
    fed, url = served
    results = {}

    def fetch(path):
        results[path] = get(url + path)[0]

    threads = [threading.Thread(target=fetch, args=(path,))
               for path in ("/status", "/metrics", "/traces")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert results == {"/status": 200, "/metrics": 200, "/traces": 200}


def test_stalled_trace_scrape_does_not_block_status():
    """A client stuck mid-request must not stall other routes.

    With the old single-threaded server, one connection that opened
    but never finished sending its request held the accept loop
    hostage; ``/status`` below would hit its timeout.
    """
    fed = build_fleet()
    endpoint = StatusEndpoint(FleetCollector(fed))
    url = endpoint.start()
    stalled = socket.create_connection((endpoint.host, endpoint.port))
    try:
        stalled.sendall(b"GET /traces HTTP/1.1\r\n")  # headers never finish
        start = time.monotonic()
        code, _headers, body = get(url + "/status")
        assert code == 200
        assert json.loads(body)["sim_time"] == fed.env.now
        assert time.monotonic() - start < 5.0
    finally:
        stalled.close()
        endpoint.stop()


def test_snapshot_lock_gates_reads_but_not_writes():
    """Handlers snapshot under the endpoint lock, so a mutator holding
    it delays the response — and releasing it unblocks immediately."""
    fed = build_fleet()
    endpoint = StatusEndpoint(FleetCollector(fed))
    url = endpoint.start()
    try:
        done = threading.Event()
        result = {}

        def fetch():
            result["code"] = get(url + "/status")[0]
            done.set()

        with endpoint.lock:  # simulate the sim driver mid-step
            thread = threading.Thread(target=fetch)
            thread.start()
            assert not done.wait(0.3)
        assert done.wait(10.0)
        assert result["code"] == 200
        thread.join(timeout=5.0)
    finally:
        endpoint.stop()


def test_qos_families_reach_fleet_scrape_and_status():
    """A classed deployment exposes per-class counters, migration
    totals, and the autorate gauges through the fleet collector."""
    from repro.network import QoSPolicy
    from repro.units import GIB

    fed = FederatedDeployment(seed=9, qos=QoSPolicy())
    for name in ("north", "south", "west"):
        fed.add_campus(name)
    fed.connect("north", "south", latency=0.010)
    fed.connect("south", "west", latency=0.010)
    fed.connect("north", "west", latency=0.060)
    fed.enable_bulk_autorate()
    done = fed.fabric.transfer("north", "west", 2 * GIB,
                               category="federation-checkpoint")
    fed.run(until=5.0)
    fed.sever("south", "west")  # in-flight checkpoint migrates
    fed.run(until=1 * HOUR)
    assert done.ok

    collector = FleetCollector(fed)
    text = collector.expose()
    for family in ("wan_class_bytes_total", "wan_class_flows_started_total",
                   "wan_class_rate_bytes_per_sec", "wan_flows_migrated_total",
                   "wan_autorate_engaged", "wan_autorate_backoffs_total",
                   "wan_autorate_recoveries_total", "wan_control_rtt_inflation"):
        assert f"# TYPE {family} " in text, family
    assert 'wan_class_bytes_total{class="bulk"}' in text
    assert "wan_flows_migrated_total 1" in text

    status = collector.status()
    qos = status["qos"]
    assert qos["flows_migrated"] == 1
    assert qos["class_bytes"]["bulk"] == pytest.approx(2 * GIB, rel=1e-6)
    assert qos["autorate"]["backoffs"] >= 1


def test_classless_deployment_has_no_qos_families():
    fed = build_fleet()
    collector = FleetCollector(fed)
    assert "wan_class_bytes_total" not in collector.expose()
    assert "qos" not in collector.status()
