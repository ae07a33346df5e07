"""The fleet coordinator: membership, leases, merge.

One process owns the campaign state machine.  Agents *pull* work —
the coordinator never initiates a connection — which keeps the
protocol loss-tolerant by construction:

* a **lease** on a ``(round, shard)`` unit expires after
  ``lease_timeout_s``; an agent that crashed or stalled simply stops
  renewing its claim and the unit flips back to ``PENDING`` for the
  next poller (attempt counter bumped, ``LEASE_EXPIRED`` event
  emitted);
* an agent missing heartbeats past ``heartbeat_timeout_s`` is marked
  ``LOST`` and its outstanding leases are released immediately — but
  the record is kept, and the same agent polling again is simply
  marked ``ALIVE`` (loss is a *state*, not an exile);
* submissions are idempotent: units are deterministic
  (:mod:`repro.fleet.campaign`), so duplicate or late results are
  accepted and acknowledged — at most the duplicate counter moves.
  A digest disagreement between two executions of the same unit is
  counted as an integrity error (it means determinism broke, which is
  a bug worth an alarm, not silent acceptance).

Rounds are barriers: units of round ``r+1`` are granted only once
every round-``r`` unit is done, mirroring how a real observatory
schedules repeated sweeps.  When the last unit lands the coordinator
merges (:func:`repro.fleet.campaign.merge_results`), optionally
persists the artifact in the content-addressed store, and wakes
:meth:`FleetCoordinator.wait` callers.

A lease is a **long-poll**: an agent that cannot be granted a unit
waits on the coordinator's condition, and a submit, a new campaign,
an opened round, a released lease or a drain ends the wait at once.
The wait is capped at half the heartbeat timeout
(:meth:`FleetCoordinator.clamp_wait`), so a waiting agent is never
swept as lost.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import telemetry
from repro.eventlog import EventLog, EventType, make_event
from repro.fleet.campaign import (
    ARTIFACT_KIND,
    CampaignSpec,
    Shard,
    bundle_for,
    merge_results,
    merged_digest,
    shards_for,
)
from repro.store.disk import ArtifactStore
from repro.store.keys import ArtifactKey, canonical_bytes

_AGENTS = telemetry.gauge(
    "repro_fleet_agents", "Registered fleet agents", labels=("state",))
_HEARTBEATS = telemetry.counter(
    "repro_fleet_heartbeats_total", "Agent heartbeats received")
_LEASES = telemetry.counter(
    "repro_fleet_leases_total", "Unit leases by outcome",
    labels=("outcome",))
_UNITS = telemetry.counter(
    "repro_fleet_units_total", "Unit submissions by outcome",
    labels=("outcome",))
_CAMPAIGNS = telemetry.counter(
    "repro_fleet_campaigns_total", "Campaigns by lifecycle step",
    labels=("step",))

#: Unit states.
PENDING, LEASED, DONE = "pending", "leased", "done"

#: Agent states.
ALIVE, LOST = "alive", "lost"


@dataclass
class AgentInfo:
    """What the coordinator knows about one agent."""

    agent_id: str
    pid: int = 0
    state: str = ALIVE
    last_seen: float = 0.0
    units_done: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"agent_id": self.agent_id, "pid": self.pid,
                "state": self.state, "units_done": self.units_done}


@dataclass
class UnitState:
    """Lifecycle of one ``(round, shard)`` unit."""

    round: int
    shard: int
    status: str = PENDING
    attempts: int = 0
    lease_id: Optional[str] = None
    agent_id: Optional[str] = None
    deadline: float = 0.0
    result: Optional[dict[str, Any]] = None


@dataclass
class Campaign:
    """One campaign's full coordinator-side state."""

    campaign_id: str
    spec: CampaignSpec
    units: dict[tuple[int, int], UnitState]
    #: The spec as submitted; ``spec`` has ``shards`` capped to the
    #: plan.  Resubmissions are matched against this one.
    submitted: CampaignSpec
    current_round: int = 0
    done: bool = False
    merged: Optional[dict[str, Any]] = None
    digest: Optional[str] = None
    artifact_digest: Optional[str] = None
    shard_plan: list[Shard] = field(default_factory=list)

    def round_done(self, r: int) -> bool:
        return all(u.status == DONE for u in self.units.values()
                   if u.round == r)

    def to_dict(self) -> dict[str, Any]:
        counts = {PENDING: 0, LEASED: 0, DONE: 0}
        for u in self.units.values():
            counts[u.status] += 1
        return {"campaign_id": self.campaign_id,
                "spec": self.spec.to_dict(),
                "current_round": self.current_round,
                "units": counts, "done": self.done,
                "digest": self.digest,
                "artifact_digest": self.artifact_digest}


class FleetCoordinator:
    """Thread-safe campaign state machine (see module docstring)."""

    def __init__(self, heartbeat_timeout_s: float = 10.0,
                 lease_timeout_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic,
                 eventlog: Optional[EventLog] = None,
                 store: Optional[ArtifactStore] = None) -> None:
        if lease_timeout_s <= 0 or heartbeat_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        self._heartbeat_timeout_s = heartbeat_timeout_s
        self._lease_timeout_s = lease_timeout_s
        self._clock = clock
        self._eventlog = eventlog
        self._store = store
        self._agents: dict[str, AgentInfo] = {}
        self._campaigns: dict[str, Campaign] = {}
        self._order: list[str] = []
        #: Ids of campaigns not yet merged, in submission order.  Every
        #: per-call scan walks this, never the whole history.
        self._open: list[str] = []
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._lease_counter = 0
        self._campaign_counter = 0
        self._draining = False

    # ------------------------------------------------------------------
    # Internals (callers hold the lock)
    # ------------------------------------------------------------------
    def _emit(self, etype: EventType, scope: str, a: int = 0, b: int = 0,
              value: float = -1.0, ok: bool = True) -> None:
        if self._eventlog is None:
            return
        # Logical timestamp: the campaign round currently executing —
        # never wall clock, so pinned-seed logs stay reproducible.
        ts = (float(self._campaigns[self._open[0]].current_round)
              if self._open else 0.0)
        self._eventlog.append([make_event(ts, etype, scope, a=a, b=b,
                                          value=value, ok=ok)])

    def _gauge_agents(self) -> None:
        if not telemetry.enabled():
            return
        alive = sum(1 for a in self._agents.values() if a.state == ALIVE)
        _AGENTS.labels(state=ALIVE).set(alive)
        _AGENTS.labels(state=LOST).set(len(self._agents) - alive)

    def _release(self, unit: UnitState, why: str) -> None:
        unit.status = PENDING
        unit.lease_id = None
        unit.agent_id = None
        unit.deadline = 0.0
        if telemetry.enabled():
            _LEASES.labels(outcome=why).inc()

    def _sweep(self) -> None:
        """Expire dead agents and stale leases (lock held)."""
        now = self._clock()
        lost_agents = [a for a in self._agents.values()
                       if a.state == ALIVE
                       and now - a.last_seen > self._heartbeat_timeout_s]
        for agent in lost_agents:
            agent.state = LOST
            released = 0
            for cid in self._open:
                for unit in self._campaigns[cid].units.values():
                    if unit.status == LEASED \
                            and unit.agent_id == agent.agent_id:
                        self._release(unit, "agent_lost")
                        self._emit(EventType.LEASE_EXPIRED,
                                   agent.agent_id, a=unit.round,
                                   b=unit.shard, value=unit.attempts,
                                   ok=False)
                        released += 1
            self._emit(EventType.AGENT_LOST, agent.agent_id,
                       a=agent.pid, b=released, ok=False)
        expired = 0
        for cid in self._open:
            for unit in self._campaigns[cid].units.values():
                if unit.status == LEASED and now > unit.deadline:
                    agent_id = unit.agent_id or ""
                    self._release(unit, "expired")
                    self._emit(EventType.LEASE_EXPIRED, agent_id,
                               a=unit.round, b=unit.shard,
                               value=unit.attempts, ok=False)
                    expired += 1
        if lost_agents:
            self._gauge_agents()
        if lost_agents or expired:
            self._changed.notify_all()

    def _touch(self, agent_id: str, pid: int = 0) -> AgentInfo:
        """Register-or-refresh an agent (lock held)."""
        agent = self._agents.get(agent_id)
        if agent is None:
            agent = AgentInfo(agent_id=agent_id, pid=pid,
                              last_seen=self._clock())
            self._agents[agent_id] = agent
            self._emit(EventType.AGENT_JOIN, agent_id, a=pid,
                       b=len(self._agents))
            self._gauge_agents()
        else:
            agent.last_seen = self._clock()
            if pid:
                agent.pid = pid
            if agent.state == LOST:
                agent.state = ALIVE
                self._gauge_agents()
        return agent

    def _open_campaign_for(self, spec: CampaignSpec) -> Optional[str]:
        """Id of the open campaign submitted as ``spec``, if any."""
        for cid in self._open:
            if self._campaigns[cid].submitted == spec:
                return cid
        return None

    def _finish(self, c: Campaign) -> None:
        """Merge and persist a fully-done campaign (lock held)."""
        docs = [u.result for u in c.units.values()]
        c.merged = merge_results(c.spec, docs)
        c.digest = merged_digest(c.merged)
        c.done = True
        self._open.remove(c.campaign_id)
        if self._store is not None:
            key = ArtifactKey.make(
                kind=ARTIFACT_KIND, seed=c.spec.seed,
                params={"scale": c.spec.scale, "rounds": c.spec.rounds,
                        "shards": c.spec.shards,
                        "probes_per_shard": c.spec.probes_per_shard,
                        "targets_per_probe": c.spec.targets_per_probe},
                schema_version=1)
            self._store.put(key, canonical_bytes(c.merged))
            c.artifact_digest = key.digest
        self._emit(EventType.CAMPAIGN_DONE, c.campaign_id,
                   a=c.spec.rounds, b=c.spec.shards,
                   value=c.merged["totals"]["measurements"])
        if telemetry.enabled():
            _CAMPAIGNS.labels(step="done").inc()
        self._changed.notify_all()

    # ------------------------------------------------------------------
    # Agent-facing operations
    # ------------------------------------------------------------------
    def register(self, agent_id: str, pid: int = 0) -> dict[str, Any]:
        with self._lock:
            self._sweep()
            self._touch(agent_id, pid)
            return {"ok": True, "agent_id": agent_id,
                    "agents": len(self._agents),
                    "shutdown": self._draining}

    def heartbeat(self, agent_id: str, pid: int = 0) -> dict[str, Any]:
        with self._lock:
            self._sweep()
            self._touch(agent_id, pid)
            if telemetry.enabled():
                _HEARTBEATS.inc()
            return {"ok": True, "shutdown": self._draining}

    def clamp_wait(self, wait_s: float) -> float:
        """``wait_s`` bounded to ``[0, heartbeat_timeout_s / 2]``.

        A long-poll that outlasted the heartbeat timeout would get its
        own agent swept as lost; the cap also bounds how long a server
        stop waits for the handler threads it joins."""
        if not wait_s > 0:  # also maps NaN to 0
            return 0.0
        return min(wait_s, self._heartbeat_timeout_s / 2)

    def _grant(self, agent_id: str) -> Optional[dict[str, Any]]:
        """Lease ``agent_id`` its next unit, if any (lock held)."""
        now = self._clock()
        for cid in self._open:
            c = self._campaigns[cid]
            held = [u for u in c.units.values()
                    if u.status == LEASED and u.agent_id == agent_id]
            if held:
                unit = held[0]
                if telemetry.enabled():
                    _LEASES.labels(outcome="regrant").inc()
            else:
                pending = sorted(
                    (u for u in c.units.values()
                     if u.status == PENDING
                     and u.round == c.current_round),
                    key=lambda u: (u.round, u.shard))
                if not pending:
                    continue
                unit = pending[0]
                self._lease_counter += 1
                unit.status = LEASED
                unit.lease_id = f"l{self._lease_counter:06d}"
                unit.agent_id = agent_id
                unit.attempts += 1
                if telemetry.enabled():
                    _LEASES.labels(outcome="granted").inc()
                self._emit(EventType.LEASE_GRANTED, agent_id,
                           a=unit.round, b=unit.shard,
                           value=unit.attempts)
            unit.deadline = now + self._lease_timeout_s
            return {"campaign_id": c.campaign_id,
                    "lease_id": unit.lease_id,
                    "round": unit.round,
                    "shard": unit.shard,
                    "attempt": unit.attempts,
                    "spec": c.spec.to_dict()}
        return None

    def lease(self, agent_id: str, pid: int = 0,
              wait_s: float = 0.0) -> dict[str, Any]:
        """Grant (or re-grant) one unit lease to ``agent_id``.

        Re-polling while holding an unexpired lease returns the same
        lease — a lost grant response (``fleet.msg_drop``) is repaired
        by the agent's retry, not by double-assignment.

        When no unit can be granted, the call waits until one can, the
        fleet drains, or ``wait_s`` (see :meth:`clamp_wait`) passes.
        The deadline is on :func:`time.monotonic`, not the injectable
        clock, so a fake clock cannot stretch it.  Every wake re-runs
        the sweep and refreshes the caller.
        """
        deadline = time.monotonic() + self.clamp_wait(wait_s)
        with self._lock:
            while True:
                self._sweep()
                self._touch(agent_id, pid)
                if self._draining:
                    return {"ok": True, "unit": None, "shutdown": True}
                unit = self._grant(agent_id)
                remaining = deadline - time.monotonic()
                if unit is not None or remaining <= 0:
                    return {"ok": True, "unit": unit, "shutdown": False}
                self._changed.wait(remaining)

    def submit(self, agent_id: str, campaign_id: str, lease_id: str,
               round_idx: int, shard: int,
               result: dict[str, Any]) -> dict[str, Any]:
        """Accept one unit result (idempotent; see module docstring)."""
        with self._lock:
            self._sweep()
            agent = self._touch(agent_id)
            c = self._campaigns.get(campaign_id)
            if c is None:
                return {"ok": False, "error": "unknown campaign"}
            unit = c.units.get((round_idx, shard))
            if unit is None:
                return {"ok": False, "error": "unknown unit"}
            if unit.status == DONE:
                outcome = "duplicate"
                if unit.result is not None \
                        and unit.result.get("digest") \
                        != result.get("digest"):
                    outcome = "mismatch"
                if telemetry.enabled():
                    _UNITS.labels(outcome=outcome).inc()
                return {"ok": True, "accepted": True,
                        "duplicate": True,
                        "mismatch": outcome == "mismatch"}
            # A lease that expired (or was re-granted elsewhere) does
            # not invalidate the bytes: units are deterministic, so a
            # late result is as good as the one we were waiting for.
            late = unit.lease_id != lease_id or unit.agent_id != agent_id
            unit.status = DONE
            unit.result = result
            unit.lease_id = None
            unit.agent_id = None
            agent.units_done += 1
            if telemetry.enabled():
                _UNITS.labels(outcome="late" if late else "done").inc()
            self._emit(EventType.SHARD_DONE, c.campaign_id,
                       a=round_idx, b=shard,
                       value=result.get("measurements", -1))
            while c.current_round < c.spec.rounds - 1 \
                    and c.round_done(c.current_round):
                c.current_round += 1
            if all(u.status == DONE for u in c.units.values()):
                self._finish(c)
            self._changed.notify_all()
            return {"ok": True, "accepted": True, "duplicate": False,
                    "mismatch": False}

    # ------------------------------------------------------------------
    # Control-plane operations
    # ------------------------------------------------------------------
    def submit_campaign(self, spec: CampaignSpec) -> str:
        """Queue a campaign; returns its id.  Re-submitting an
        identical spec returns the existing campaign (idempotent).

        The world and shard plan are built outside the lock, so leases,
        submits and heartbeats never wait on a first-use build; the
        idempotency check runs again once they exist, since an
        identical spec may have been queued meanwhile."""
        with self._lock:
            cid = self._open_campaign_for(spec)
        if cid is not None:
            return cid
        bundle = bundle_for(spec.seed, spec.scale)
        plan = shards_for(bundle, spec)
        capped = CampaignSpec(**{**spec.to_dict(), "shards": len(plan)})
        with self._lock:
            cid = self._open_campaign_for(spec)
            if cid is not None:
                return cid
            self._campaign_counter += 1
            cid = f"c{self._campaign_counter:03d}-{capped.digest[:8]}"
            units = {(r, s): UnitState(round=r, shard=s)
                     for r, s in capped.units()}
            self._campaigns[cid] = Campaign(
                campaign_id=cid, spec=capped, units=units,
                submitted=spec, shard_plan=plan)
            self._order.append(cid)
            self._open.append(cid)
            self._emit(EventType.CAMPAIGN_BEGIN, cid, a=capped.rounds,
                       b=capped.shards)
            if telemetry.enabled():
                _CAMPAIGNS.labels(step="submitted").inc()
            self._changed.notify_all()
            return cid

    def wait(self, campaign_id: str,
             timeout: Optional[float] = None) -> Optional[dict[str, Any]]:
        """Block until the campaign merges; returns the merged doc
        (or ``None`` on timeout, measured on :func:`time.monotonic`).
        Runs the sweep while waiting, so a coordinator with no other
        traffic still expires dead leases."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                c = self._campaigns.get(campaign_id)
                if c is None:
                    raise KeyError(f"unknown campaign {campaign_id!r}")
                if c.done:
                    return c.merged
                step = 0.2
                if deadline is not None:
                    step = min(step, deadline - time.monotonic())
                    if step <= 0:
                        return None
                self._changed.wait(timeout=step)
                self._sweep()

    def campaign(self, campaign_id: str) -> Optional[Campaign]:
        with self._lock:
            return self._campaigns.get(campaign_id)

    def drain(self) -> None:
        """Tell every future poll to shut its agent down."""
        with self._lock:
            self._draining = True
            self._changed.notify_all()

    def status(self) -> dict[str, Any]:
        """JSON-safe snapshot for ``/v1/fleet/*`` and the CLI."""
        with self._lock:
            self._sweep()
            return {"agents": [self._agents[k].to_dict()
                               for k in sorted(self._agents)],
                    "campaigns": [self._campaigns[cid].to_dict()
                                  for cid in self._order],
                    "draining": self._draining}


__all__ = [
    "ALIVE", "AgentInfo", "Campaign", "DONE", "FleetCoordinator",
    "LEASED", "LOST", "PENDING", "UnitState",
]
