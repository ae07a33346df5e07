"""The measurement agent: one simulated vantage-point process.

An agent is a pull loop against a coordinator: register, poll for a
lease, rebuild the unit's inputs from the spec (never from the wire),
run the measurements through :mod:`repro.fleet.campaign`, submit, and
repeat until the coordinator says to drain or there is no more work.

Two transports share the loop:

* :class:`TcpClient` — the real thing: ``repro agent`` subprocesses
  talking JSON-over-TCP (:mod:`repro.fleet.rpc`), retrying lost
  messages;
* :class:`LocalClient` — the same protocol dispatched in-process
  (fault injection included), used by tests and ``repro campaign``'s
  threaded mode where byte-identity with the serial oracle is the
  point, not throughput.

Fault sites: ``fleet.agent_crash`` kills the agent on a leased unit —
``os._exit`` with :data:`repro.faults.CRASH_EXIT_CODE` in a real
process (``hard_exit=True``), an :class:`AgentCrashed` raise when
in-process (exiting the thread; taking the whole test process down
would be the one thing a *simulated* crash must not do).
``fleet.agent_stall`` sleeps through the lease timeout instead, and
``fleet.msg_drop`` is injected in the transports.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import faults
from repro.fleet import rpc
from repro.fleet.campaign import (
    CampaignSpec,
    bundle_for,
    run_unit,
    shards_for,
)
from repro.fleet.coordinator import FleetCoordinator


class AgentCrashed(RuntimeError):
    """In-process stand-in for an injected hard agent death."""


class LocalClient:
    """Protocol dispatch straight into a coordinator object.

    Same retry/drop semantics as the TCP path so in-process fleets
    exercise the full loss-tolerance machinery.
    """

    def __init__(self, coordinator: FleetCoordinator,
                 retries: int = rpc.DEFAULT_RETRIES) -> None:
        self._coordinator = coordinator
        self._retries = retries

    def call(self, doc: dict[str, Any], ident: str = "") -> dict[str, Any]:
        op = str(doc.get("op", ""))
        last: Optional[Exception] = None
        for attempt in range(self._retries + 1):
            try:
                rpc.maybe_drop(op, ident, "request")
                resp = rpc.dispatch(self._coordinator, doc)
                rpc.maybe_drop(op, ident, "response")
                return resp
            except rpc.MessageDropped as exc:
                last = exc
                if attempt < self._retries:
                    time.sleep(rpc.BACKOFF_S * (attempt + 1))
        assert last is not None
        raise last


class TcpClient:
    """Protocol dispatch over the JSON-line TCP transport."""

    def __init__(self, address: tuple[str, int], timeout: float = 10.0,
                 retries: int = rpc.DEFAULT_RETRIES) -> None:
        self._address = (address[0], int(address[1]))
        self._timeout = timeout
        self._retries = retries

    def call(self, doc: dict[str, Any], ident: str = "") -> dict[str, Any]:
        return rpc.call(self._address, doc, timeout=self._timeout,
                        retries=self._retries, ident=ident)


@dataclass
class AgentStats:
    """What one agent loop did before exiting."""

    agent_id: str
    units_done: int = 0
    polls: int = 0
    shutdown: bool = False
    errors: list[str] = field(default_factory=list)


class Agent:
    """The pull loop (see module docstring)."""

    def __init__(self, client: Any, agent_id: str, workers: int = 1,
                 poll_s: float = 0.2, hard_exit: bool = False,
                 max_idle_polls: Optional[int] = None) -> None:
        self._client = client
        self.agent_id = agent_id
        self._workers = max(1, int(workers))
        self._poll_s = poll_s
        self._hard_exit = hard_exit
        #: Stop after this many consecutive no-work polls (None = only
        #: a drain stops us — the daemon mode).
        self._max_idle_polls = max_idle_polls
        self.stats = AgentStats(agent_id=agent_id)
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    def _call(self, doc: dict[str, Any], ident: str = "") -> dict[str, Any]:
        doc = {**doc, "agent_id": self.agent_id, "pid": os.getpid()}
        return self._client.call(doc, ident=ident)

    def _run_unit(self, unit: dict[str, Any]) -> None:
        spec = CampaignSpec.from_dict(unit["spec"])
        round_idx = int(unit["round"])
        shard_idx = int(unit["shard"])
        ident = f"{unit['campaign_id']}:{round_idx}:{shard_idx}"
        if faults.should_fire("fleet.agent_crash", ident):
            if self._hard_exit:
                os._exit(faults.CRASH_EXIT_CODE)
            raise AgentCrashed(f"injected crash on {ident}")
        faults.sleep_if("fleet.agent_stall", ident)
        bundle = bundle_for(spec.seed, spec.scale)
        shard = shards_for(bundle, spec)[shard_idx]
        result = run_unit(bundle, spec, round_idx, shard,
                          workers=self._workers)
        self._call({"op": "submit",
                    "campaign_id": unit["campaign_id"],
                    "lease_id": unit["lease_id"],
                    "round": round_idx, "shard": shard_idx,
                    "result": result},
                   ident=f"submit:{self.agent_id}:{ident}")
        self.stats.units_done += 1

    def run(self) -> AgentStats:
        """Register and pull until drained, stopped or idled out.

        An idle lease waits up to ``poll_s`` at the coordinator, which
        answers as soon as a unit can be granted, so a new campaign or
        an opened round reaches an idle agent without a sleep."""
        self._call({"op": "register"},
                   ident=f"register:{self.agent_id}")
        idle = 0
        while not self._stop.is_set():
            self.stats.polls += 1
            resp = self._call(
                {"op": "lease", "wait_s": self._poll_s},
                ident=f"lease:{self.agent_id}:{self.stats.polls}")
            if resp.get("shutdown"):
                self.stats.shutdown = True
                break
            unit = resp.get("unit")
            if unit is None:
                idle += 1
                if self._max_idle_polls is not None \
                        and idle >= self._max_idle_polls:
                    break
                if not resp.get("ok"):
                    # A refused lease did not wait: back off instead.
                    self._stop.wait(self._poll_s)
                continue
            idle = 0
            self._run_unit(unit)
        return self.stats


def spawn_local_agents(coordinator: FleetCoordinator, count: int,
                       workers: int = 1, poll_s: float = 0.05,
                       prefix: str = "local") -> list[tuple[threading.Thread,
                                                            Agent]]:
    """Start ``count`` in-process agents on daemon threads.

    An :class:`AgentCrashed` raise ends its thread only — from the
    coordinator's point of view that agent just went silent, which is
    exactly the failure being simulated.
    """
    out: list[tuple[threading.Thread, Agent]] = []
    for i in range(count):
        agent = Agent(LocalClient(coordinator),
                      agent_id=f"{prefix}-{i}", workers=workers,
                      poll_s=poll_s)

        def _loop(a: Agent = agent) -> None:
            try:
                a.run()
            except AgentCrashed as exc:
                a.stats.errors.append(str(exc))

        t = threading.Thread(target=_loop, daemon=True,
                             name=f"fleet-agent-{i}")
        t.start()
        out.append((t, agent))
    return out


__all__ = [
    "Agent", "AgentCrashed", "AgentStats", "LocalClient", "TcpClient",
    "spawn_local_agents",
]
