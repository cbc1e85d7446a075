"""A breadth-first model checker for the forward protocol's decisions.

The model holds one job on a line of sites: an origin and a host, or an
origin, a relay and a host.  It has no kernel: every step is one
message delivered, lost, duplicated or reordered, a call timed out
while its messages are in flight, a lease expiring, a payload pull
finishing or failing, a relay forwarding the job onward or starting it,
the job finishing, the user cancelling it at the origin, or a gateway
crashing or restarting.  What each step *decides* comes from
``repro.federation.forward`` itself: the host's :func:`fate`, the
commit decision, offer admission, the sender's resolution table and
the journal classification.  Every phase write goes through its
``_advance``, so an illegal edge of ``_NEXT`` raises here exactly as it
would in a run.  The model supplies only the order of effects the
gateway's generator shell performs around those decisions.

The network is the WAN's control traffic between neighbours.  Each
direction delivers in send order unless a fault reorders it, any
message may be lost, and a lost leg fails its call at once, as the RPC
layer does.  A caller may also give up on a slow call while its
request and the reply stay in flight, and a duplicated request is
delivered again behind everything sent after it, so stale requests
and replies still arrive late.  A crash drops what
``ForwardProtocol.crash`` drops: the waiting calls, the leases, a
running payload pull and its ``COMMITTING`` leg.  The sender leg, the
hosting leg, the notice and the token ordinal survive.

Invariants, checked in every reachable state:

* at most one site ever runs the job;
* every phase write is legal under ``_NEXT``;
* each site settles its hosting leg at most once;

and, from every reachable state, once faults stop and the network
drains (a fixed fault-free schedule): every sender leg ends
``COMPLETED`` or ``CANCELLED`` or was dropped with the job back in that
site's queue, never both; the origin's job ends completed or
cancelled; and no site holds a lease, a pull, an unsettled hosting leg
or an unacknowledged notice.

Run ``python tests/test_forward_model.py`` for the explored state
count and wall time.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from types import SimpleNamespace
from typing import NamedTuple, Optional, Tuple

import pytest

from repro.errors import NetworkError
from repro.federation import forward
from repro.federation.forward import REQUEUE, _advance
from repro.federation.messages import (
    DelegationState as D,
    ForwardRecord,
    HostingState as Hs,
    HostRecord,
    JobRecord,
)
from repro.workloads.training import JobStatus

#: The call each message belongs to: a sender's handshake (``hs``) or
#: reconcile pass (``rc``), or a host's completion notice (``nt``).  A
#: release is fire-and-forget.
ROLE = {"offer": "hs", "commit": "hs", "status": "rc", "cancel": "rc",
        "notice": "nt", "release": None}
REPLY_TO = {"r-" + kind: kind for kind in ROLE}
#: What travels from a sender to its host; everything else travels back.
TO_HOST = {"offer", "commit", "status", "cancel", "release", "r-notice"}

#: What the tier-1 explorations may spend: ``(sites, faults, crashes)``.
#: A fault is a message lost, duplicated or delivered out of order, a
#: call timed out while its messages are in flight, or a pull failed.
#: Together they run in about six seconds; larger budgets run from the
#: command line.
BUDGETS = ((2, 2, 1), (2, 1, 2), (3, 1, 0), (3, 0, 2))


class Site(NamedTuple):
    out: Optional[tuple] = None  # sender leg: (phase, token, cancel_pending)
    inb: Optional[tuple] = None  # hosting leg: (phase, token)
    #: The site's local job: unknown here (``None``), ``held`` by its
    #: gateway (offered or delegated onward), ``parked`` at a relay for
    #: want of a card, ``running`` here, ``done`` or ``cancelled``.
    job: Optional[str] = None
    runs: bool = False  # the job ran (or runs) here
    waits: frozenset = frozenset()  # the calls this site waits on
    leases: frozenset = frozenset()
    seq: int = 1
    pull: Optional[tuple] = None  # (token, answers a live call)
    notice: bool = False
    up: bool = True
    settles: int = 0


class State(NamedTuple):
    sites: Tuple[Site, ...]
    #: Per link ``i`` (site ``i`` forwards to ``i + 1``): channel
    #: ``2 i`` carries ``i -> i + 1``, channel ``2 i + 1`` the reverse;
    #: each holds ``(kind, live, payload)`` in send order.
    chans: Tuple[tuple, ...]
    faults: int = 0
    crashes: int = 0
    user_cancelled: bool = False


def start(sites: int) -> State:
    """The origin has journaled its leg and sent the offer."""
    origin = Site(out=(D.OFFERED, None, False), job="held",
                  waits=frozenset({"hs"}))
    chans = ((("offer", True, None),),) + ((),) * (2 * sites - 3)
    return State((origin,) + (Site(),) * (sites - 1), chans)


#: The sites of a line, by its length.
NAMES = {2: ("origin", "host"), 3: ("origin", "relay", "host")}


def names(s: State) -> Tuple[str, ...]:
    return NAMES[len(s.sites)]


class Violation(Exception):
    """An invariant broke; the message names it."""


_FIELD = {name: index for index, name in enumerate(Site._fields)}


def _set(s: State, i: int, **changes) -> State:
    site = list(s.sites[i])
    for name, value in changes.items():
        site[_FIELD[name]] = value
    sites = list(s.sites)
    sites[i] = Site(*site)
    return State(tuple(sites), *s[1:])


def _walk(phase, *phases):
    """Walk a leg through ``phases`` with the protocol's ``_advance``."""
    leg = SimpleNamespace(state=phase)
    for step in phases:
        try:
            _advance(leg, step)
        except ValueError as exc:
            raise Violation(str(exc)) from None
    return leg.state


def _frozen(reply: dict) -> tuple:
    return tuple(sorted(reply.items()))


# -- a site's view, as the decision functions see it --------------------------

def _record(s: State, i: int) -> JobRecord:
    site, name = s.sites[i], names(s)
    out = host = None
    if site.out is not None:
        out = ForwardRecord("job", name[i + 1], 0.0, 0.0, False,
                            claim_token=site.out[1] or "",
                            state=site.out[0])
    if site.inb is not None:
        host = HostRecord(name[0], 0.0, name[:i], site.inb[1], site.inb[0])
    return JobRecord("job", out=out, host=host)


def _job_state(site: Site):
    if site.job is None:
        return None
    return SimpleNamespace(
        status=JobStatus.CANCELLED if site.job == "cancelled"
        else JobStatus.RUNNING,
        is_done=site.job == "done", completed_at=1.0)


# -- the network --------------------------------------------------------------

def _send(s: State, link: int, kind: str, payload=None,
          live: bool = True) -> State:
    c = 2 * link + (kind not in TO_HOST)
    chans = list(s.chans)
    chans[c] = chans[c] + ((kind, live, payload),)
    return State(s.sites, tuple(chans), *s[2:])


def _link(i: int, role: str) -> int:
    """The link a site's call of ``role`` travels."""
    return i - 1 if role == "nt" else i


def _abandon(s: State, i: int, role: str) -> State:
    """Site ``i`` stops waiting: every message of the call goes stale."""
    link = _link(i, role)
    chans = list(s.chans)
    for c in (2 * link, 2 * link + 1):
        chans[c] = tuple((kind, live and ROLE[REPLY_TO.get(kind, kind)]
                          != role, payload)
                         for kind, live, payload in chans[c])
    s = _set(s._replace(chans=tuple(chans)), i,
             waits=s.sites[i].waits - {role})
    host = s.sites[link + 1]
    if role == "hs" and host.pull is not None:
        s = _set(s, link + 1, pull=(host.pull[0], False))
    return s


def _call(s: State, i: int, role: str, kind: str, payload=None) -> State:
    s = _set(s, i, waits=s.sites[i].waits | {role})
    return _send(s, _link(i, role), kind, payload)


def _call_failed(s: State, link: int, kind: str) -> State:
    """A leg of the call behind ``kind`` was lost: its caller sees an
    error at once, as a failed RPC leg does."""
    role = ROLE[REPLY_TO.get(kind, kind)]
    owner = link + 1 if role == "nt" else link
    if role is None or role not in s.sites[owner].waits:
        return s
    return _timeout(s, owner, role)


def _timeout(s: State, i: int, role: str) -> State:
    """The call fails for its caller: an offer reads as a decline, a
    commit parks the leg as unknown outcome, anything else is retried."""
    s = _abandon(s, i, role)
    out = s.sites[i].out
    if role != "hs" or out is None:
        return s
    if out[0] is D.OFFERED:
        return _requeue(s, i)
    return _park_unknown(s, i)


def _live_calls(s: State):
    """Calls still waited on, and whether any of their messages (or the
    pull answering one) is on its way."""
    for i, site in enumerate(s.sites):
        for role in sorted(site.waits):
            link = _link(i, role)
            pending = any(live and ROLE[REPLY_TO.get(kind, kind)] == role
                          for c in (2 * link, 2 * link + 1)
                          for kind, live, _ in s.chans[c])
            pull = s.sites[link + 1].pull
            if role == "hs" and pull is not None and pull[1]:
                pending = True
            yield i, role, pending


# -- effects the gateway shell performs ---------------------------------------

def _requeue(s: State, i: int) -> State:
    """``ForwardProtocol._requeue``: drop the leg, re-park the job
    unless it was cancelled (here it then runs)."""
    if s.sites[i].job == "cancelled":
        return _set(s, i, out=None)
    return _set(s, i, out=None, job="running", runs=True)


def _park_unknown(s: State, i: int) -> State:
    out = s.sites[i].out
    return _set(s, i, out=(_walk(out[0], D.UNKNOWN),) + out[1:])


def _committed(s: State, i: int) -> State:
    """``ForwardProtocol._committed``; a relay's hosting ends here."""
    site = s.sites[i]
    phase, token, pending = site.out
    s = _set(s, i, out=(_walk(phase, D.COMMITTED), token,
                        pending or site.job == "cancelled"))
    return _settle(s, i) if i else s


def _settle(s: State, i: int) -> State:
    site = s.sites[i]
    if site.inb is None or site.inb[0] is not Hs.HOSTED:
        return s
    if site.settles:
        raise Violation(f"the {names(s)[i]} settled twice")
    return _set(s, i, inb=(_walk(Hs.HOSTED, Hs.SETTLED), site.inb[1]),
                settles=1)


def _settle_completion(s: State, i: int) -> State:
    """Settle a finished hosted job and queue its notice."""
    site = s.sites[i]
    if site.inb is None or site.inb[0] is not Hs.HOSTED:
        return s
    return _notify(_set(_settle(s, i), i, notice=True), i)


def _notify(s: State, i: int) -> State:
    site = s.sites[i]
    if not site.notice or "nt" in site.waits or not site.up:
        return s
    reply = forward.completed(_record(s, i), 1.0, names(s)[i])
    return _call(s, i, "nt", "notice", _frozen(reply))


def _resolve(s: State, i: int, reply: dict) -> State:
    """``ForwardProtocol._resolve``: a fate reported to sender ``i``."""
    outcome = reply["state"]
    leg = s.sites[i].out
    steps = forward.resolve(leg[0], outcome) if leg is not None else ()
    if steps == REQUEUE:
        return _requeue(s, i)
    if outcome == "pending" or (leg is not None and not steps):
        return s
    for phase in steps:
        if phase is D.COMMITTED:
            s = _committed(s, i)
        else:
            out = s.sites[i].out
            s = _set(s, i, out=(_walk(out[0], phase),) + out[1:])
    if outcome == "committed":
        return s
    if leg is not None:
        s = _set(s, i, out=s.sites[i].out[:2] + (False,))
    if outcome == "completed":
        if s.sites[i].job != "cancelled":
            s = _set(s, i, job="done")
        if leg is not None and i:  # a relay chains the notice upstream
            s = _notify(_set(s, i, notice=True), i)
    return s


# -- message handlers ---------------------------------------------------------

def _at_host(s: State, link: int, kind: str, live: bool, payload):
    """Successors of host ``link + 1`` handling one message."""
    j = link + 1
    site, name = s.sites[j], names(s)
    if kind == "release":
        return [_set(s, j, leases=site.leases - {payload})]
    if kind == "r-notice":
        if not live:
            return [s]
        s = _abandon(s, j, "nt")
        return [_set(s, j, notice=site.notice and payload != "ok")]
    record, state = _record(s, j), _job_state(site)
    if kind == "offer":
        reason = forward.decline_reason(
            SimpleNamespace(relay_path=name[:j]), name[j], record, state,
            blocked=False, hosts=True, fits=True)
        if reason is not None:
            return [_send(s, link, "r-offer", _frozen(
                {"accepted": False, "reason": reason}), live)]
        token = f"{name[j]}#{site.seq}"
        s = _set(s, j, seq=site.seq + 1, leases=site.leases | {token})
        return [_send(s, link, "r-offer", _frozen(
            {"accepted": True, "claim_token": token}), live)]
    if kind == "commit":
        try:
            reply = forward.commit_reply(record.host, payload,
                                         payload in site.leases)
        except NetworkError:  # an ambiguous answer, like a lost ack
            return [_send(s, link, "r-commit", None, live)]
        if reply is not None:
            return [_send(s, link, "r-commit", _frozen(reply), live)]
        return [_set(s, j, leases=site.leases - {payload},
                     inb=(Hs.COMMITTING, payload), pull=(payload, live))]
    if kind == "status":
        reply, lease = forward.probe_reply(record, state, name[j], payload)
        s = _set(s, j, leases=site.leases - {lease})
        return [_send(s, link, "r-status", _frozen(reply), live)]
    assert kind == "cancel"
    reply = forward.fate(record, state, name[j])
    if reply["state"] != "committed":
        return [_send(s, link, "r-cancel", _frozen(reply), live)]
    cancelled = _frozen({"state": "cancelled"})
    if site.job != "running":
        # Parked or relayed onward: nothing to terminate here; a relay
        # owes the cancel downstream.
        if site.out is not None:
            s = _set(s, j, out=site.out[:2] + (True,))
        s = _settle(_set(s, j, job="cancelled"), j)
        return [_send(s, link, "r-cancel", cancelled, live)]
    # The terminate round trip: the job dies, or finishes first and
    # the cancel reports the lost race.
    killed = _settle(_set(s, j, job="cancelled"), j)
    finished = _settle_completion(_set(s, j, job="done"), j)
    lost = forward.fate(_record(finished, j),
                        _job_state(finished.sites[j]), name[j])
    return [_send(killed, link, "r-cancel", cancelled, live),
            _send(finished, link, "r-cancel", _frozen(lost), live)]


def _at_sender(s: State, i: int, kind: str, live: bool, payload) -> State:
    """Sender ``i`` handling one reply or notice."""
    if kind == "notice":
        out = s.sites[i].out
        if out is not None and out[0] in (D.OFFERED, D.CLAIMED):
            return _send(s, i, "r-notice", None, live)  # refused
        return _send(_resolve(s, i, dict(payload)), i, "r-notice", "ok",
                     live)
    if not live:
        return s  # the call this answers is over
    s = _abandon(s, i, ROLE[REPLY_TO[kind]])  # answered: the call ends
    reply = dict(payload) if payload is not None else None
    site = s.sites[i]
    if kind == "r-offer":
        if reply is None or not reply.get("accepted"):
            return _requeue(s, i)
        token = reply["claim_token"]
        if site.job == "cancelled":  # walk away, release the lease
            return _send(_set(s, i, out=None), i, "release", token, False)
        s = _set(s, i, out=(_walk(site.out[0], D.CLAIMED), token,
                            site.out[2]))
        return _call(s, i, "hs", "commit", token)
    if kind == "r-commit":
        if reply is None:
            return _park_unknown(s, i)
        if not reply.get("committed"):
            return _requeue(s, i)
        return _committed(s, i)
    if reply is None:
        return s  # an ask that failed: retried next pass
    return _resolve(s, i, reply)


def _deliver(s: State, c: int, index: int = 0):
    """Deliver message ``index`` of channel ``c``."""
    queue = s.chans[c]
    kind, live, payload = queue[index]
    chans = list(s.chans)
    chans[c] = queue[:index] + queue[index + 1:]
    s = s._replace(chans=tuple(chans))
    link, back = divmod(c, 2)
    if not s.sites[link + 1 - back].up:  # no endpoint: the leg fails
        return [_call_failed(s, link, kind) if live else s]
    if back:
        return [_at_sender(s, link, kind, live, payload)]
    return _at_host(s, link, kind, live, payload)


# -- local steps --------------------------------------------------------------

def _pull_done(s: State, i: int, ok: bool) -> State:
    site = s.sites[i]
    token, live = site.pull
    s = _set(s, i, pull=None)
    if not ok:
        s = _set(s, i, inb=None)
        return _send(s, i - 1, "r-commit", _frozen(
            {"committed": False, "reason": "pull-failed"}), live)
    last = i == len(s.sites) - 1  # the last site has no one to relay to
    s = _set(s, i, inb=(_walk(site.inb[0], Hs.HOSTED), token),
             job="running" if last else "parked", runs=site.runs or last)
    return _send(s, i - 1, "r-commit", _frozen({"committed": True}), live)


def _relay(s: State, i: int) -> State:
    """A relay with no card for the job offers it onward."""
    s = _set(s, i, job="held", out=(D.OFFERED, None, False))
    return _call(s, i, "hs", "offer")


def _reconcile(s: State, i: int) -> Optional[State]:
    """One step of site ``i``'s reconcile pass, if it has work."""
    site = s.sites[i]
    if not site.up or "rc" in site.waits or site.out is None:
        return None
    phase, token, pending = site.out
    if phase is D.UNKNOWN:
        return _call(s, i, "rc", "status", token)
    if pending and phase in (D.COMPLETED, D.CANCELLED):
        return _set(s, i, out=(phase, token, False))
    if pending and phase is D.COMMITTED:
        return _call(s, i, "rc", "cancel")
    return None


def _finish(s: State, i: int) -> State:
    s = _set(s, i, job="done")
    return _settle_completion(s, i) if s.sites[i].up else s


def _crash(s: State, i: int) -> State:
    for role in sorted(s.sites[i].waits):
        s = _abandon(s, i, role)
    inb = s.sites[i].inb
    if inb is not None and inb[0] is Hs.COMMITTING:
        inb = None
    return _set(s, i, up=False, leases=frozenset(), pull=None, inb=inb)


def _restart(s: State, i: int) -> State:
    """``ForwardProtocol.recover``: classify the journal, settle what
    finished while down, re-derive a pending cancel."""
    s = _set(s, i, up=True)
    site = s.sites[i]
    if site.out is not None and site.out[0] in (D.OFFERED, D.CLAIMED):
        if forward.classify_journal(site.out[0]) == REQUEUE:
            s = _requeue(s, i)
        else:
            s = _park_unknown(s, i)
    if site.job == "cancelled":
        s = _settle(s, i)
    elif site.job == "done":
        s = _settle_completion(s, i)
    out = s.sites[i].out
    if out is not None and out[0] in (D.COMMITTED, D.UNKNOWN) and (
            site.job == "cancelled"):
        s = _set(s, i, out=out[:2] + (True,))
    return _notify(s, i)


# -- the step relation --------------------------------------------------------

def successors(s: State, faults: int, crashes: int):
    """Every state one step away, with the step's label, spending at
    most ``faults`` faults and ``crashes`` crashes in all."""
    fault = s.faults < faults
    for c, queue in enumerate(s.chans):
        link, back = divmod(c, 2)
        ends = names(s)[link:link + 2]
        arrow = f"{ends[back]}->{ends[1 - back]}"
        if queue:
            for t in _deliver(s, c):
                yield f"deliver {arrow} {queue[0][0]}", t
            if fault:
                chans = list(s.chans)
                chans[c] = queue + queue[:1]
                copy = s._replace(chans=tuple(chans), faults=s.faults + 1)
                for t in _deliver(copy, c):
                    yield f"duplicate {arrow} {queue[0][0]}", t
        if not fault:
            continue
        for index, (kind, live, _) in enumerate(queue):
            chans = list(s.chans)
            chans[c] = queue[:index] + queue[index + 1:]
            t = s._replace(chans=tuple(chans), faults=s.faults + 1)
            yield f"lose {arrow} {kind}", (_call_failed(t, link, kind)
                                           if live else t)
            if index:
                for t in _deliver(s._replace(faults=s.faults + 1), c,
                                  index):
                    yield f"reorder {arrow} {kind}", t
    for i, role, pending in _live_calls(s):
        if not pending:
            yield f"{names(s)[i]} {role} fails", _timeout(s, i, role)
        elif fault:
            yield f"{names(s)[i]} {role} times out", _timeout(
                s._replace(faults=s.faults + 1), i, role)
    for i, site in enumerate(s.sites):
        name = names(s)[i]
        if site.pull is not None and site.up:
            yield f"{name} pull done", _pull_done(s, i, True)
            if fault:
                yield f"{name} pull fails", _pull_done(
                    s._replace(faults=s.faults + 1), i, False)
        if site.job == "parked" and site.up and site.out is None:
            yield f"{name} relays onward", _relay(s, i)
            yield f"{name} starts it", _set(s, i, job="running", runs=True)
        for token in sorted(site.leases):
            yield f"lease {token} expires", _set(
                s, i, leases=site.leases - {token})
        if site.job == "running":
            yield f"{name} finishes", _finish(s, i)
        t = _reconcile(s, i)
        if t is not None:
            yield f"{name} reconciles", t
        if site.up and site.notice and "nt" not in site.waits:
            yield f"{name} notifies", _notify(s, i)
        if site.up and s.crashes < crashes:
            yield f"crash {name}", _crash(
                s._replace(crashes=s.crashes + 1), i)
        if not site.up:
            yield f"restart {name}", _restart(s, i)
    origin = s.sites[0]
    if not s.user_cancelled and origin.job in ("held", "running"):
        t = _set(s._replace(user_cancelled=True), 0, job="cancelled")
        if origin.up and origin.out is not None:
            t = _set(t, 0, out=origin.out[:2] + (True,))
        yield "user cancels", t


def check_safety(s: State) -> None:
    if sum(site.runs for site in s.sites) > 1:
        raise Violation("double execution: two sites run the job")


# -- liveness: drain with no more faults --------------------------------------

def _heal_step(s: State):
    """The fault-free schedule's next step, or ``None`` at quiescence."""
    name = names(s)
    for i, site in enumerate(s.sites):
        if not site.up:
            return f"restart {name[i]}", _restart(s, i)
    for c, queue in enumerate(s.chans):
        if queue:
            return f"deliver {queue[0][0]}", _deliver(s, c)[0]
    for i, site in enumerate(s.sites):
        if site.pull is not None:
            return f"{name[i]} pull done", _pull_done(s, i, True)
    for i, role, pending in _live_calls(s):
        if not pending:
            return f"{name[i]} {role} fails", _timeout(s, i, role)
    for i, site in enumerate(s.sites):
        t = _reconcile(s, i)
        if t is not None:
            return f"{name[i]} reconciles", t
        if site.notice and "nt" not in site.waits:
            return f"{name[i]} notifies", _notify(s, i)
        if site.job == "parked" and site.out is None:
            return f"{name[i]} relays onward", _relay(s, i)
        if site.leases:
            return f"{name[i]} leases expire", _set(s, i,
                                                    leases=frozenset())
    for i, site in enumerate(s.sites):
        if site.job == "running":
            return f"{name[i]} finishes", _finish(s, i)
    return None


def check_drained(s: State) -> None:
    for name, site in zip(names(s), s.sites):
        if site.out is not None and site.out[0] not in (D.COMPLETED,
                                                        D.CANCELLED):
            raise Violation(f"the {name}'s leg is stuck {site.out[0].name}")
        if site.out is not None and site.runs:
            raise Violation(f"the {name} both requeued and delegated it")
        if site.inb is not None and site.inb[0] is not Hs.SETTLED:
            raise Violation(f"the {name}'s hosting leg is stuck "
                            f"{site.inb[0].name}")
        if site.notice:
            raise Violation(f"the {name}'s notice was never acknowledged")
        if site.job in ("held", "parked"):
            raise Violation(f"the job is stuck {site.job} at the {name}")
    if s.sites[0].job not in ("done", "cancelled"):
        raise Violation(f"the origin's job ends {s.sites[0].job}")
    if s.sites[0].job == "done" and not any(x.runs for x in s.sites):
        raise Violation("the job completed without running anywhere")


def drain(s: State, healthy: set) -> None:
    """Run the fault-free schedule from ``s`` to quiescence and check
    where it ends.  A violation carries the schedule's steps."""
    path, labels = [], []
    while s not in healthy:
        path.append(s)
        try:
            if len(path) > 200:
                raise Violation("the drain does not terminate")
            check_safety(s)
            step = _heal_step(s)
            if step is None:
                check_drained(s)
                break
        except Violation as exc:
            exc.drain = tuple(labels)
            raise
        labels.append(step[0])
        s = step[1]
    healthy.update(path)


class Report(NamedTuple):
    states: int
    seconds: float
    violation: Optional[str] = None
    trace: Tuple[str, ...] = ()


def explore(sites: int, faults: int, crashes: int) -> Report:
    """Breadth-first search over one job on a line of ``sites``; stops
    at the first broken invariant with the shortest trace that breaks
    it (the steps to the state, then those of its fault-free drain)."""
    began = time.perf_counter()
    first = start(sites)
    parent = {first: None}
    frontier = deque([first])
    healthy: set = set()
    while frontier:
        s = frontier.popleft()
        tail: Tuple[str, ...] = ()
        try:
            drain(s, healthy)
            for label, t in successors(s, faults, crashes):
                tail = (label,)
                check_safety(t)
                if t not in parent:
                    parent[t] = (s, label)
                    frontier.append(t)
        except Violation as exc:
            trace, at = [], s
            while parent[at] is not None:
                at, label = parent[at]
                trace.append(label)
            tail = getattr(exc, "drain", tail)
            return Report(len(parent), time.perf_counter() - began,
                          str(exc), tuple(reversed(trace)) + tail)
    return Report(len(parent), time.perf_counter() - began)


# -- the tests ----------------------------------------------------------------

@pytest.mark.parametrize("sites, faults, crashes", BUDGETS)
def test_forward_protocol_model_holds_every_invariant(sites, faults,
                                                      crashes):
    report = explore(sites, faults, crashes)
    print(f"forward model, {sites} sites, {faults} faults, {crashes} "
          f"crashes: {report.states} states in {report.seconds:.2f} s")
    assert report.violation is None, (report.violation, report.trace)
    assert report.states > 1_000  # the faults really were explored


def _m1_no_replay(host, token, leased):
    if host is not None and host.claim_token == token and (
            host.state is Hs.COMMITTING):
        raise forward.RpcError("still pulling")
    return None if leased else {"committed": False,
                                "reason": "lease-expired"}


def _m3_keep_lease(record, state, site, token):
    return forward.fate(record, state, site), None


#: The mutation checks: a commit decision without its idempotent
#: replay, a recovery that requeues a ``CLAIMED`` leg like an
#: ``OFFERED`` one, and an ``absent`` probe that keeps its lease.
MUTANTS = {
    "m1": ("commit_reply", _m1_no_replay),
    "m2": ("classify_journal", lambda phase: REQUEUE),
    "m3": ("probe_reply", _m3_keep_lease),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_model_catches_a_broken_decision(monkeypatch, mutant):
    """The checker is not blind: each mutant runs a job twice."""
    monkeypatch.setattr(forward, *MUTANTS[mutant])
    report = explore(*BUDGETS[0])
    assert report.violation is not None
    assert "double execution" in report.violation, report


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sites", type=int, choices=(2, 3), default=2)
    parser.add_argument("--faults", type=int, default=2)
    parser.add_argument("--crashes", type=int, default=1)
    parser.add_argument("--mutant", choices=sorted(MUTANTS))
    args = parser.parse_args()
    if args.mutant:
        setattr(forward, *MUTANTS[args.mutant])
    result = explore(args.sites, args.faults, args.crashes)
    print(f"{result.states} states in {result.seconds:.2f} s")
    if result.violation:
        print(f"{result.violation} after {len(result.trace)} steps:")
        print("\n".join(result.trace))
        sys.exit(1)
