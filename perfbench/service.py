"""Workload ``service-open-loop``: the simulation service over HTTP.

A :class:`~repro.server.SimulationServer` runs the demo scenario in a
child process (``service_child.py``).  This process is the load: one
thread submits ``POST /jobs`` open-loop on a fixed schedule, and one
thread polls each accepted job until it is terminal and scrapes
``/metrics`` on a fixed cadence, so reads run alongside writes.  Each
latency is timed from the moment its request was due, which charges a
stall to every request queued behind it.

The run is a few identical rounds, each on a freshly started server
with the same seed: the reference rate, where every latency and the
server's simulated hours per second are sampled, then a closed-loop
phase, where one connection submits back to back and the accepted jobs
per second are the capacity.  The latencies are the best of the
rounds, job by job (:func:`common.best_of`), and the simulation rate
the best round's.  The last round's server then climbs
a short rate ladder, starting below that capacity, that finds the
highest rate whose submit latency meets :data:`SUBMIT_LIMIT_S` with
nothing refused.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from common import Outcome, best_of, percentile, tail
from layers import ratio

CHILD = Path(__file__).with_name("service_child.py")

#: Jobs per second in the reference phase (no request may be refused).
REFERENCE_RATE = 40.0
#: Seconds of each round's reference phase (160 jobs, a p90 tail) and
#: closed-loop phase.
REFERENCE_S = 4.0
CLOSED_LOOP_S = 3.0
#: Nominal wall seconds of one round, start-up and drains included.
#: The run's seconds fix the number of rounds, so every run takes the
#: best of as many rounds.
ROUND_S = 8.0
#: Share of the run's seconds left to the ladder, after the rounds.
LADDER_SHARE = 0.2
#: First ladder rate, as a share of the closed-loop capacity, and the
#: factor between rates until one misses the limit.
LADDER_START = 0.75
LADDER_GROWTH = 1.2
#: Seconds each ladder rate is held.
LADDER_STEP_S = 1.5
#: Submit-latency limit a sustained rate must meet at its tail.
SUBMIT_LIMIT_S = 0.05
#: Seconds between ``/metrics`` scrapes.
SCRAPE_INTERVAL_S = 0.5
#: Seconds between sweeps over the outstanding jobs.
POLL_INTERVAL_S = 0.005
#: Outstanding jobs above which a sweep lists every job in one request.
POLL_EACH_MAX = 20
#: Simulated compute per submitted job, reference-GPU hours.
JOB_COMPUTE_HOURS = 0.02
#: Wall seconds to wait for the last accepted jobs to finish.
DRAIN_TIMEOUT_S = 60.0
#: Per-request socket timeout, seconds.
REQUEST_TIMEOUT_S = 10.0

TERMINAL = ("completed", "failed", "cancelled")


@dataclass
class Sample:
    """One scheduled request: when it was due, sent and answered."""

    due: float
    lateness: float
    latency: float
    result: object


class OpenLoop:
    """Sends ``count`` requests at ``rate`` per second, on schedule.

    A request is never sent early; when ``send`` runs long, later
    requests go out late, and both their lateness and their latency
    are measured from their due time.  ``clock`` and ``sleep`` are
    injectable so the accounting can be checked against a fake clock.
    """

    def __init__(self, rate: float, count: int,
                 send: Callable[[int, float], object],
                 clock: Callable[[], float] = perf_counter,
                 sleep: Callable[[float], None] = time.sleep):
        self.rate = rate
        self.count = count
        self.send = send
        self.clock = clock
        self.sleep = sleep

    def run(self, start: Optional[float] = None) -> List[Sample]:
        start = self.clock() if start is None else start
        samples = []
        for index in range(self.count):
            due = start + index / self.rate
            now = self.clock()
            if now < due:
                self.sleep(due - now)
                now = self.clock()
            result = self.send(index, due)
            samples.append(Sample(due, now - due, self.clock() - due,
                                  result))
        return samples


def request(base: Tuple[str, int], method: str, path: str,
            payload=None) -> Tuple[int, bytes]:
    """One HTTP exchange on a fresh connection: ``(status, body)``."""
    conn = http.client.HTTPConnection(*base, timeout=REQUEST_TIMEOUT_S)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {
            "Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def sim_time(base: Tuple[str, int]) -> float:
    """The server's simulation clock, seconds, from ``GET /status``."""
    code, body = request(base, "GET", "/status")
    if code != 200:
        raise RuntimeError(f"GET /status -> {code}")
    return json.loads(body)["sim_time"]


class Child:
    """The server process: started, timed to ready, stopped, reaped."""

    def __init__(self, seed: int, trace: bool):
        started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), "--seed", str(seed),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("the server process exited at start-up")
            parts = urlsplit(json.loads(line)["url"])
            self.base = (parts.hostname, parts.port)
            code, _ = request(self.base, "GET", "/status")
            if code != 200:
                raise RuntimeError(f"GET /status -> {code} at start-up")
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - started

    def peak_rss_mib(self) -> float:
        """The server's peak resident set size so far, MiB."""
        self.proc.stdin.write("rss\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["peak_rss_mib"]

    def stop(self) -> dict:
        """Ask the server to stop; returns its final report."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"the server process exited with {self.proc.returncode}")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Load:
    """Both load threads' shared books (guarded by one lock)."""

    def __init__(self, base: Tuple[str, int], seed: int):
        self.base = base
        self.rng = random.Random(seed)
        self.lock = threading.Lock()
        #: job id -> due time of its submission, until seen terminal.
        self.outstanding: Dict[str, float] = {}
        #: due time of a sampled job's submission -> its job latency.
        self.job_latencies: Dict[float, float] = {}
        self.final: Dict[str, str] = {}
        self.scrape_latencies: List[float] = []
        self.backlog_max = 0.0
        self.errors: List[str] = []
        self.attempted = 0
        self.sample_jobs = True
        #: Set while the watcher polls jobs (cleared during ladder steps
        #: so the ladder measures submissions with scrapes alongside).
        self.polling = threading.Event()
        self.polling.set()
        self.stopping = threading.Event()

    def error(self, message: str) -> None:
        with self.lock:
            self.errors.append(message)

    def submit(self, due: float, site: str) -> int:
        """One ``POST /jobs``; returns its status (0 when it errored)."""
        payload = {"site": site, "compute_hours": JOB_COMPUTE_HOURS,
                   "owner": "perfbench", "lab": "perfbench"}
        try:
            code, body = request(self.base, "POST", "/jobs", payload)
        except OSError as error:
            self.error(f"POST /jobs: {error!r}")
            return 0
        if code == 202:
            with self.lock:
                self.outstanding[json.loads(body)["job_id"]] = due
        elif code != 429:
            self.error(f"POST /jobs -> {code}: {body[:200]!r}")
        return code

    def phase(self, rate: float, seconds: float, sites: List[str]
              ) -> List[Sample]:
        """Submit open-loop at ``rate`` for ``seconds``."""
        picks = [self.rng.choice(sites) for _ in range(int(rate * seconds))]
        samples = OpenLoop(rate, len(picks),
                           lambda i, due: self.submit(due, picks[i])).run()
        with self.lock:
            self.attempted += len(samples)
        return samples

    def closed_loop(self, seconds: float, sites: List[str]) -> float:
        """Submit back to back for ``seconds``; returns the accepted
        jobs per second."""
        started = perf_counter()
        sent = accepted = 0
        while perf_counter() - started < seconds:
            sent += 1
            if self.submit(perf_counter(), self.rng.choice(sites)) == 202:
                accepted += 1
        elapsed = perf_counter() - started
        with self.lock:
            self.attempted += sent
        return accepted / elapsed

    def watch(self) -> None:
        """Poll outstanding jobs and scrape ``/metrics`` on schedule."""
        next_scrape = perf_counter()
        while not self.stopping.is_set():
            now = perf_counter()
            if now >= next_scrape:
                self.scrape(next_scrape)
                next_scrape += SCRAPE_INTERVAL_S
            with self.lock:
                pending = list(self.outstanding.items())
            if self.polling.is_set():
                if len(pending) > POLL_EACH_MAX:
                    self.poll_all()
                else:
                    for job_id, _ in pending:
                        self.poll(job_id)
            time.sleep(POLL_INTERVAL_S)

    def scrape(self, due: float) -> None:
        try:
            code, body = request(self.base, "GET", "/metrics")
        except OSError as error:
            self.error(f"GET /metrics: {error!r}")
            return
        latency = perf_counter() - due
        if code != 200:
            self.error(f"GET /metrics -> {code}")
            return
        backlog = sum(float(line.rsplit(" ", 1)[1])
                      for line in body.decode().splitlines()
                      if line.startswith("server_queue_pressure{"))
        with self.lock:
            self.attempted += 1
            self.scrape_latencies.append(latency)
            self.backlog_max = max(self.backlog_max, backlog)

    def poll(self, job_id: str) -> None:
        try:
            code, body = request(self.base, "GET", f"/jobs/{job_id}")
        except OSError as error:
            self.error(f"GET /jobs/{job_id}: {error!r}")
            return
        if code != 200:
            self.error(f"GET /jobs/{job_id} -> {code}")
            return
        self.settle(job_id, json.loads(body)["status"])

    def poll_all(self) -> None:
        """One ``GET /jobs`` for a large backlog."""
        try:
            code, body = request(self.base, "GET", "/jobs")
        except OSError as error:
            self.error(f"GET /jobs: {error!r}")
            return
        if code != 200:
            self.error(f"GET /jobs -> {code}")
            return
        for job in json.loads(body)["jobs"]:
            self.settle(job["job_id"], job["status"])

    def settle(self, job_id: str, status: str) -> None:
        """Book a terminal status (and its latency, when sampling)."""
        if status not in TERMINAL:
            return
        seen = perf_counter()
        with self.lock:
            due = self.outstanding.pop(job_id, None)
            if due is None:
                return
            self.final[job_id] = status
            if self.sample_jobs:
                self.job_latencies[due] = seen - due

    def drain(self, timeout: float) -> int:
        """Wait for outstanding jobs; returns how many never finished."""
        self.polling.set()
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            with self.lock:
                if not self.outstanding:
                    return 0
            time.sleep(0.05)
        with self.lock:
            return len(self.outstanding)


def ladder(load: Load, sites: List[str], seconds: float, start: float
           ) -> Tuple[float, List[str]]:
    """The highest rate sustained, and one row per step tried.

    Rates climb by :data:`LADDER_GROWTH` from ``start`` until a step
    misses, then the rest of the budget bisects between
    the last rate held and the lowest that missed.  A miss counts only
    when a retest of the same rate misses too, so one slow second of a
    shared host does not cap the estimate.  The result is interpolated
    between the final pair; see :func:`knee`.
    """
    rows: List[str] = []
    steps: List[Tuple[float, bool, float]] = []
    budget = perf_counter() + seconds
    held, missed = 0.0, None
    rate = start
    retesting = False
    load.polling.clear()
    while perf_counter() + LADDER_STEP_S <= budget:
        samples = load.phase(rate, LADDER_STEP_S, sites)
        refused = sum(1 for s in samples if s.result != 202)
        p, submit_tail, count = tail([s.latency for s in samples])
        ok = refused == 0 and submit_tail <= SUBMIT_LIMIT_S
        steps.append((rate, ok, math.inf if refused else submit_tail))
        rows.append(f"{rate:.1f}/s: {count} sent, {refused} refused, "
                    f"submit p{p:g} {submit_tail * 1e3:.1f} ms "
                    f"-> {'held' if ok else 'missed'}")
        # A step's backlog must clear before the next step starts.
        load.drain(DRAIN_TIMEOUT_S)
        load.polling.clear()
        if not ok and not retesting:
            retesting = True
            continue
        retesting = False
        if ok:
            held = rate
        else:
            missed = rate
        rate = (rate * LADDER_GROWTH if missed is None
                else (held + missed) / 2)
    return knee(steps, SUBMIT_LIMIT_S), rows


def knee(steps: List[Tuple[float, bool, float]], limit: float) -> float:
    """The rate where the submit tail crosses ``limit``.

    ``steps`` are ``(rate, held, submit tail)`` rows.  Between the
    highest rate held and the lowest rate above it that missed, the
    crossing is interpolated on the logarithm of the tail, so the
    estimate moves smoothly with the server instead of jumping between
    ladder rungs.  With no such miss, it is the highest rate held.
    """
    held = [(rate, tail) for rate, ok, tail in steps if ok]
    if not held:
        return 0.0
    low_rate, low_tail = max(held)
    above = [(rate, tail) for rate, ok, tail in steps
             if not ok and rate > low_rate]
    if not above:
        return low_rate
    high_rate = min(rate for rate, _ in above)
    high_tail = min(tail for rate, tail in above if rate == high_rate)
    if not math.isfinite(high_tail) or high_tail <= low_tail:
        return low_rate
    share = ((math.log(limit) - math.log(low_tail))
             / (math.log(high_tail) - math.log(low_tail)))
    return low_rate + (high_rate - low_rate) * min(1.0, max(0.0, share))


@dataclass
class Round:
    """What one round measured on its own server."""

    setup_s: float
    report: dict
    load: Load
    reference: List[Sample]
    #: Simulated hours per wall second during the reference phase.
    sim_rate: float
    capacity: float
    sustained: float
    rows: List[str]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    count = 1 if trace else max(
        2, round(seconds * (1 - LADDER_SHARE) / ROUND_S))
    # The last round's server also climbs the ladder.
    rounds = [one_round(seed, trace, seconds * LADDER_SHARE
                        if index == count - 1 else 0.0)
              for index in range(count)]
    outcome = Outcome()
    for done in rounds:
        check(done, outcome)
    last = rounds[-1]
    if last.sustained <= 0:
        outcome.fail("validity: no ladder rate was sustained")
    if not outcome.correct:
        return outcome

    lateness = [s.lateness for done in rounds for s in done.reference]
    if trace:
        metrics = last.report["layers"]
        for problem in last.report["self_time_problems"]:
            outcome.fail(problem)
        metrics["server.backlog_max"] = last.load.backlog_max
        metrics["loadgen.lateness_p99_s"] = percentile(lateness, 99)
        for name, value in metrics.items():
            outcome.put(name, value, "")
        return outcome

    submit = best_of([[s.latency for s in done.reference]
                      for done in rounds])
    jobs = best_of([[done.load.job_latencies[s.due] for s in done.reference]
                    for done in rounds])
    scrapes = [latency for done in rounds
               for latency in done.load.scrape_latencies]
    submit_p, submit_tail, _ = tail(submit)
    job_p, job_tail, job_n = tail(jobs)
    outcome.detail("rounds", len(rounds), "count")
    outcome.detail("submit_latency_p50_s", percentile(submit, 50), "s")
    outcome.detail(f"submit_latency_p{submit_p:g}_s", submit_tail, "s")
    outcome.detail("job_latency_p50_s", percentile(jobs, 50), "s")
    outcome.detail(f"job_latency_p{job_p:g}_s", job_tail, "s")
    outcome.detail("job_samples", job_n, "count")
    outcome.detail("sustained_jobs_per_s", last.sustained, "1/s")
    outcome.detail("scrape_latency_p50_s", percentile(scrapes, 50), "s")
    outcome.detail("lateness_p99_s", percentile(lateness, 99), "s")
    outcome.detail("closed_loop_jobs_per_s",
                   max(done.capacity for done in rounds), "1/s")
    outcome.detail("server_backlog_max",
                   max(done.load.backlog_max for done in rounds), "count")
    outcome.put("setup_s", percentile([done.setup_s for done in rounds], 50),
                "s")
    outcome.put("peak_rss_mib",
                max(done.report["peak_rss_mib"] for done in rounds), "MiB")
    outcome.put("ok_frac", 1.0 - ratio(outcome.failed, outcome.attempted),
                "frac")
    outcome.put("throughput_per_s",
                max(done.sim_rate for done in rounds), "1/s")
    outcome.put("latency_ms", percentile(jobs, 50) * 1e3, "ms")
    outcome.put("latency_tail_ms", job_tail * 1e3, "ms")
    print("\n".join(f"  ladder {row}" for row in last.rows))
    return outcome


def check(done: Round, outcome: Outcome) -> None:
    """Count one round's operations and book its failures."""
    load, report = done.load, done.report
    outcome.attempted += load.attempted
    for problem in load.errors:
        outcome.fail(problem)
    for sample in done.reference:
        if sample.result != 202:
            outcome.fail(f"reference rate: POST /jobs -> {sample.result}")
    not_completed = {job_id: status for job_id, status in load.final.items()
                     if status != "completed"}
    for job_id, status in sorted(not_completed.items()):
        outcome.fail(f"job {job_id} ended {status}")
    for violation in report["audit"]:
        outcome.fail(f"audit: {violation}")
    accepted = sum(report["statuses"].values())
    if report["statuses"].get("completed", 0) != accepted:
        outcome.fail(f"server job book: {report['statuses']}")
    if accepted != len(load.final):
        outcome.fail(f"{accepted} jobs accepted but {len(load.final)} "
                     f"seen terminal")


def one_round(seed: int, trace: bool, ladder_s: float) -> Round:
    """One round on a fresh server, which is stopped and reaped on
    every path out."""
    child = Child(seed, trace)
    try:
        return drive(child, seed, ladder_s)
    except BaseException:
        child.kill()
        raise


def drive(child: Child, seed: int, ladder_s: float) -> Round:
    """Reference phase, closed loop, then the ladder for ``ladder_s``
    (if any); drain, then stop the server."""
    _, body = request(child.base, "GET", "/status")
    sites = sorted(json.loads(body)["sites"])
    load = Load(child.base, seed)
    watcher = threading.Thread(target=load.watch, name="perfbench-watch")
    watcher.start()
    sustained, rows = 0.0, []
    try:
        started, sim_start = perf_counter(), sim_time(child.base)
        reference = load.phase(REFERENCE_RATE, REFERENCE_S, sites)
        sim_rate = ((sim_time(child.base) - sim_start) / 3600.0
                    / (perf_counter() - started))
        unfinished = load.drain(DRAIN_TIMEOUT_S)
        server_rss = child.peak_rss_mib()
        load.sample_jobs = False
        load.polling.clear()
        capacity = load.closed_loop(CLOSED_LOOP_S, sites)
        unfinished += load.drain(DRAIN_TIMEOUT_S)
        if ladder_s > 0:
            sustained, rows = ladder(load, sites, ladder_s,
                                     LADDER_START * capacity)
            unfinished += load.drain(DRAIN_TIMEOUT_S)
    finally:
        load.stopping.set()
        watcher.join()
    if unfinished:
        load.error(f"{unfinished} accepted job(s) never finished")
    report = child.stop()
    report["peak_rss_mib"] = server_rss
    return Round(child.setup_s, report, load, reference, sim_rate,
                 capacity, sustained, rows)
