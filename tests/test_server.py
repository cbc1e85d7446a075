"""SimulationServer: the HTTP job API over a continuously-driven sim."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import handler_errors
from repro.scenarios import ScenarioSpec, compile_scenario
from repro.server import SimulationServer

TERMINAL = {"completed", "failed", "cancelled"}


def quiet_scenario(duration_hours=4.0, gpus=4):
    """Two linked campuses, no scenario demand — API traffic only."""
    return ScenarioSpec.from_dict({
        "name": "quiet",
        "duration_hours": duration_hours,
        "sites": [
            {"name": "north",
             "providers": [{"name": "n1", "gpus": ["rtx4090"] * gpus}]},
            {"name": "south",
             "providers": [{"name": "s1", "gpus": ["a100-40g"] * gpus}]},
        ],
        "links": [{"a": "north", "b": "south"}],
    })


def request(url, method="GET", payload=None, timeout=15.0):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            body = response.read().decode()
            return response.status, dict(response.headers), body
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


@pytest.fixture()
def server():
    srv = SimulationServer(quiet_scenario(), seed=1)
    srv.start()
    yield srv
    srv.stop()


def poll_terminal(url, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _code, _headers, body = request(f"{url}/jobs/{job_id}")
        doc = json.loads(body)
        if doc["status"] in TERMINAL:
            return doc
        time.sleep(0.01)
    raise TimeoutError(f"{job_id} still {doc['status']}")


# -- the /jobs API -----------------------------------------------------------

def test_submit_poll_complete(server):
    code, _headers, body = request(server.url + "/jobs", "POST", {
        "site": "north", "model": "resnet50-cifar",
        "compute_hours": 0.02, "owner": "alice", "lab": "vision"})
    assert code == 202
    doc = json.loads(body)
    assert doc["job_id"].startswith("api-")
    assert doc["site"] == "north"
    final = poll_terminal(server.url, doc["job_id"])
    assert final["status"] == "completed"
    assert final["progress"] == 1.0
    assert final["node"] is None or final["node"].startswith("n")


def test_jobs_index_lists_submissions(server):
    ids = set()
    for site in ("north", "south"):
        _c, _h, body = request(server.url + "/jobs", "POST",
                               {"site": site, "compute_hours": 0.01})
        ids.add(json.loads(body)["job_id"])
    _code, _headers, body = request(server.url + "/jobs")
    listed = {doc["job_id"] for doc in json.loads(body)["jobs"]}
    assert ids <= listed


def test_malformed_submissions_are_400(server):
    cases = [
        {"site": "atlantis"},                       # unknown site
        {"site": "north", "model": "gpt9"},         # unknown model
        {"site": "north", "compute_hours": -1},     # bad number
        {"site": "north", "compute_hours": True},   # bool is not a number
        {"site": "north", "flavor": "spicy"},       # unknown field
        [],                                         # not an object
    ]
    for payload in cases:
        code, _headers, body = request(server.url + "/jobs", "POST", payload)
        assert code == 400, (payload, body)
        assert "error" in json.loads(body)


def test_unparseable_body_is_400(server):
    req = urllib.request.Request(
        server.url + "/jobs", data=b"{not json", method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=10)
    assert err.value.code == 400


def test_unknown_job_routes_404(server):
    for method in ("GET", "DELETE"):
        code, _headers, _body = request(
            server.url + "/jobs/api-999999", method)
        assert code == 404


def test_cancel_queued_job_then_conflict():
    # sim all but frozen: the job stays queued, so DELETE withdraws it
    srv = SimulationServer(quiet_scenario(), seed=5, time_scale=0.001)
    url = srv.start()
    try:
        _c, _h, body = request(url + "/jobs", "POST",
                               {"site": "north", "compute_hours": 100.0})
        job_id = json.loads(body)["job_id"]
        code, _headers, body = request(f"{url}/jobs/{job_id}", "DELETE")
        assert code == 200
        assert json.loads(body)["status"] == "cancelled"
        code, _headers, _body = request(f"{url}/jobs/{job_id}", "DELETE")
        assert code == 409  # already terminal
    finally:
        srv.stop()


def test_cancel_running_job_terminates_it(server):
    _c, _h, body = request(server.url + "/jobs", "POST",
                           {"site": "north", "compute_hours": 100.0})
    job_id = json.loads(body)["job_id"]
    code, _headers, _body = request(
        f"{server.url}/jobs/{job_id}", "DELETE")
    assert code in (200, 409)
    # queued at DELETE time -> cancelled; running -> terminate RPC,
    # which the platform books as a failure
    final = poll_terminal(server.url, job_id)
    assert final["status"] in {"cancelled", "failed"}


def test_backpressure_429_with_retry_after():
    srv = SimulationServer(quiet_scenario(gpus=1), seed=2,
                           time_scale=0.001,  # sim all but frozen
                           max_queue_depth=2)
    url = srv.start()
    try:
        saw_429 = None
        for _ in range(8):
            code, headers, body = request(url + "/jobs", "POST", {
                "site": "north", "compute_hours": 10.0})
            if code == 429:
                saw_429 = (headers, json.loads(body))
                break
            assert code == 202
        assert saw_429 is not None, "queue never saturated"
        headers, doc = saw_429
        assert int(headers["Retry-After"]) >= 1
        assert "saturated" in doc["error"]
        # the rejection is counted
        _code, _headers, metrics = request(url + "/metrics")
        assert "server_jobs_rejected_total 1" in metrics
    finally:
        srv.stop()


# -- observability surface ---------------------------------------------------

def test_metrics_gains_server_families(server):
    request(server.url + "/jobs", "POST",
            {"site": "north", "compute_hours": 0.01})
    code, headers, body = request(server.url + "/metrics")
    assert code == 200
    for family in ("server_requests_total", "server_jobs_submitted_total",
                   "server_sim_time_seconds", "server_queue_pressure"):
        assert f"# TYPE {family} " in body, family
    # fleet families still present on the same scrape
    assert "# TYPE campus_jobs_running gauge" in body
    assert 'route="/jobs"' in body


def test_status_and_traces_still_served(server):
    code, _headers, body = request(server.url + "/status")
    assert code == 200
    assert set(json.loads(body)["sites"]) == {"north", "south"}
    code, _headers, body = request(server.url + "/traces")
    assert code == 200


@pytest.mark.parametrize("time_scale", [100.0, 3600.0])
def test_time_scale_maps_wall_to_sim(time_scale):
    srv = SimulationServer(quiet_scenario(), seed=3, time_scale=time_scale)
    sim_start = srv.deployment.env.now
    began = time.monotonic()
    srv.start()
    try:
        time.sleep(1.0)
        with srv.lock:
            covered = srv.deployment.env.now - sim_start
            wall = time.monotonic() - began
        # the clock keeps time_scale sim-seconds per wall-second
        assert 0.6 <= covered / (time_scale * wall) <= 1.2
    finally:
        srv.stop()


def test_free_running_driver_keeps_pace_with_a_bare_run_loop():
    """Free-running, the driver yields between chunks but does not
    sleep, so it covers sim time at a good share of a bare run loop's
    rate on the same host."""
    deployment = compile_scenario(quiet_scenario(), seed=2).deployment
    sim_start = deployment.env.now
    began = time.monotonic()
    while time.monotonic() - began < 0.5:
        deployment.run(until=deployment.env.now + 30.0)
    bare_rate = (deployment.env.now - sim_start) / (time.monotonic() - began)

    srv = SimulationServer(quiet_scenario(), seed=2)
    sim_start = srv.deployment.env.now
    began = time.monotonic()
    srv.start()
    try:
        time.sleep(0.5)
        with srv.lock:
            covered = srv.deployment.env.now - sim_start
            wall = time.monotonic() - began
    finally:
        srv.stop()
    assert covered / wall >= 0.25 * bare_rate


def test_a_crashed_driver_is_reported(monkeypatch):
    """An exception out of the simulation ends the driver thread, goes
    to the thread excepthook (which prints it by default), and shows in
    audit() and run_until_idle() instead of a silently frozen clock."""
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    srv = SimulationServer(quiet_scenario(), seed=6)

    def boom(_arg):
        raise RuntimeError("boom")

    srv.deployment.env.call_later(60.0, boom)
    url = srv.start()
    try:
        driver = srv._driver
        driver.join(timeout=10.0)
        assert not driver.is_alive()
        assert [type(args.exc_value) for args in hooked] == [RuntimeError]
        assert srv.audit() == ["driver: stopped by RuntimeError('boom')"]
        with pytest.raises(RuntimeError, match="driver stopped"):
            srv.run_until_idle(timeout=5.0)
        code, _headers, _body = request(url + "/status")
        assert code == 200
    finally:
        srv.stop()


def test_constructor_validation():
    with pytest.raises(ValueError, match="time_scale"):
        SimulationServer(quiet_scenario(), time_scale=0.0)
    with pytest.raises(ValueError, match="max_queue_depth"):
        SimulationServer(quiet_scenario(), max_queue_depth=0)
    with pytest.raises(ValueError, match="chunk"):
        SimulationServer(quiet_scenario(), chunk=-1.0)


# -- the acceptance bar: 1,000 jobs, exactly once ----------------------------

def test_thousand_jobs_exactly_once():
    """1,000 HTTP submissions complete with the standing invariants
    intact while /status and /metrics stay responsive throughout."""
    srv = SimulationServer(quiet_scenario(duration_hours=2.0, gpus=6),
                           seed=4, max_queue_depth=2000)
    url = srv.start()
    total, workers = 1000, 8
    accepted = []
    accepted_lock = threading.Lock()
    errors = []

    def submit(worker_index, quota):
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
        mine = []
        try:
            for i in range(quota):
                site = "north" if (worker_index + i) % 2 == 0 else "south"
                conn.request("POST", "/jobs", body=json.dumps({
                    "site": site, "compute_hours": 0.005,
                    "owner": f"w{worker_index}", "lab": "acceptance"}),
                    headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = response.read()
                if response.status != 202:
                    errors.append((response.status, body[:120]))
                    continue
                mine.append(json.loads(body)["job_id"])
                if response.will_close:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        srv.host, srv.port, timeout=30)
        finally:
            conn.close()
        with accepted_lock:
            accepted.extend(mine)

    threads = [threading.Thread(target=submit, args=(w, total // workers))
               for w in range(workers)]
    for thread in threads:
        thread.start()
    # the observability surface must stay responsive during the flood
    probes = 0
    while any(thread.is_alive() for thread in threads):
        code_s, _h, _b = request(url + "/status", timeout=15)
        code_m, _h, metrics = request(url + "/metrics", timeout=15)
        assert code_s == 200 and code_m == 200
        probes += 1
    for thread in threads:
        thread.join()
    assert not errors, errors[:3]
    assert len(accepted) == total
    assert probes >= 1

    srv.run_until_idle(timeout=120.0)
    # every job reached "completed", exactly once, books balanced
    _code, _headers, body = request(url + "/jobs")
    by_status = {}
    for doc in json.loads(body)["jobs"]:
        by_status[doc["status"]] = by_status.get(doc["status"], 0) + 1
    assert by_status == {"completed": total}
    assert srv.audit() == []
    assert handler_errors.unexpected(srv.deployment) == {}
    _code, _headers, metrics = request(url + "/metrics")
    assert f"server_jobs_submitted_total {total}" in metrics
    srv.stop()
