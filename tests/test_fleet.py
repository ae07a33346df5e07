"""repro.fleet: distributed campaigns, leases, and loss tolerance.

The acceptance bar for the distributed observatory: the merged
campaign artifact is a pure function of the spec — byte-identical
whether produced by one process, by in-process agent threads, or by
subprocess agents where one is killed mid-round — and the coordinator
reassigns leases from crashed, stalled, or silent agents without ever
double-counting a unit.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from repro import faults
from repro.topology import WorldParams, build_world
from repro.fleet import (
    Agent,
    AgentCrashed,
    CampaignSpec,
    CoordinatorServer,
    FleetCoordinator,
    LocalClient,
    bundle_for,
    merge_results,
    merged_digest,
    plan_shards,
    run_campaign_serial,
    run_unit,
    shards_for,
    spawn_local_agents,
)
from repro.fleet import rpc

SEED = 2025
#: Small but non-trivial: 2 rounds x 4 shards = 8 units, every African
#: region represented, DNS sites present.
SPEC = CampaignSpec(seed=SEED, scale=0.1, rounds=2, shards=4,
                    probes_per_shard=4, targets_per_probe=4)


@pytest.fixture(autouse=True)
def clean_faults():
    faults.configure(None)
    yield
    faults.configure(None)


@pytest.fixture(scope="module")
def topo():
    return build_world(params=WorldParams(seed=SEED, scale=0.1))


@pytest.fixture(scope="module")
def oracle():
    """Single-process merged doc + digest for SPEC."""
    doc = run_campaign_serial(SPEC)
    return doc, merged_digest(doc)


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
class TestShardPlanning:
    def test_covers_every_african_as_exactly_once(self, topo):
        african = {a.asn for a in topo.african_ases()}
        for n in (2, 4, 5, 8):
            plan = plan_shards(topo, n)
            assert len(plan) == n
            seen = [asn for shard in plan for asn in shard.asns]
            assert len(seen) == len(set(seen)) == len(african), n
            assert set(seen) == african, n

    def test_deterministic(self, topo):
        a = [s.to_dict() for s in plan_shards(topo, 4)]
        b = [s.to_dict() for s in plan_shards(topo, 4)]
        assert a == b

    def test_region_apportionment_when_enough_shards(self, topo):
        regions = {a.region.name for a in topo.african_ases()}
        plan = plan_shards(topo, max(8, len(regions)))
        # With >= one shard per region, every shard is single-region
        # and every region holds at least one shard.
        assert {s.region for s in plan} == regions
        for shard in plan:
            shard_regions = {a.region.name for a in topo.african_ases()
                             if a.asn in set(shard.asns)}
            assert shard_regions == {shard.region}

    def test_fallback_chunks_label_straddlers_mixed(self, topo):
        plan = plan_shards(topo, 2)
        regions = {a.region.name for a in topo.african_ases()}
        assert all(s.region in regions | {"mixed"} for s in plan)

    def test_shards_nonempty_and_duplicate_free(self, topo):
        for shard in plan_shards(topo, 4):
            assert shard.asns
            assert len(shard.asns) == len(set(shard.asns))


# ----------------------------------------------------------------------
# Spec + merge
# ----------------------------------------------------------------------
class TestSpecAndMerge:
    def test_spec_round_trip_and_digest(self):
        again = CampaignSpec.from_dict(SPEC.to_dict())
        assert again == SPEC
        assert again.digest == SPEC.digest
        assert CampaignSpec(seed=SEED, scale=0.1, rounds=3, shards=4,
                            probes_per_shard=4,
                            targets_per_probe=4).digest != SPEC.digest

    def test_units_enumerate_round_major(self):
        assert SPEC.units() == [(r, s) for r in range(2)
                                for s in range(4)]

    def test_unit_is_deterministic_and_round_dependent(self):
        bundle = bundle_for(SEED, 0.1)
        plan = shards_for(bundle, SPEC)
        one = run_unit(bundle, SPEC, 0, plan[0])
        two = run_unit(bundle, SPEC, 0, plan[0])
        assert one == two
        other_round = run_unit(bundle, SPEC, 1, plan[0])
        assert other_round["digest"] != one["digest"]

    def test_merge_requires_every_unit(self, oracle):
        doc, _ = oracle
        with pytest.raises(ValueError, match="missing units"):
            merge_results(SPEC, doc["units"][:-1])

    def test_merge_is_order_independent(self, oracle):
        doc, digest = oracle
        shuffled = list(reversed(doc["units"]))
        assert merged_digest(merge_results(SPEC, shuffled)) == digest

    def test_merged_doc_carries_no_agent_identity(self, oracle):
        doc, _ = oracle
        assert set(doc) == {"format", "spec", "units", "totals"}
        for unit in doc["units"]:
            assert "agent_id" not in unit and "lease_id" not in unit


# ----------------------------------------------------------------------
# Coordinator protocol (fake clock — no sleeps)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def _fake_result(round_idx: int, shard: int,
                 digest: str = "d0") -> dict:
    return {"round": round_idx, "shard": shard, "region": "x",
            "asns": 1, "probes": [], "digest": digest,
            "measurements": 1, "reached": 1, "rtt_count": 1,
            "dns_runs": 0, "dns_ok": 0, "wire_bytes": 10,
            "rtt_sum_ms": 5.0}


def _submit(coord: FleetCoordinator, agent_id: str, cid: str,
            unit: dict) -> dict:
    return coord.submit(agent_id, cid, unit["lease_id"], unit["round"],
                        unit["shard"],
                        _fake_result(unit["round"], unit["shard"]))


def _run_to_merge(coord: FleetCoordinator, cid: str,
                  agent_id: str) -> None:
    while not coord.campaign(cid).done:
        _submit(coord, agent_id, cid, coord.lease(agent_id)["unit"])


class _Unwalkable(dict):
    """A finished campaign's units: lookups work, any walk fails."""

    def _walk(self, *args):
        raise AssertionError("walked a finished campaign's units")

    __iter__ = keys = values = items = _walk


class TestCoordinatorProtocol:
    def setup_method(self):
        self.clock = FakeClock()
        self.coord = FleetCoordinator(heartbeat_timeout_s=10.0,
                                      lease_timeout_s=30.0,
                                      clock=self.clock)
        self.cid = self.coord.submit_campaign(SPEC)

    def _drain_round(self, agent_id: str, expect_round: int) -> None:
        for _ in range(SPEC.shards):
            unit = self.coord.lease(agent_id)["unit"]
            assert unit["round"] == expect_round
            self.coord.submit(agent_id, self.cid, unit["lease_id"],
                              unit["round"], unit["shard"],
                              _fake_result(unit["round"], unit["shard"]))

    def test_campaign_submit_is_idempotent(self):
        assert self.coord.submit_campaign(SPEC) == self.cid
        assert len(self.coord.status()["campaigns"]) == 1

    def test_rounds_are_barriers(self):
        # "a" holds one round-0 unit; "b" drains the other three.
        held = self.coord.lease("a")["unit"]
        assert held["round"] == 0
        for _ in range(SPEC.shards - 1):
            unit = self.coord.lease("b")["unit"]
            assert unit["round"] == 0
            self.coord.submit("b", self.cid, unit["lease_id"],
                              unit["round"], unit["shard"],
                              _fake_result(unit["round"], unit["shard"]))
        # Round 1 is withheld while "a"'s round-0 unit is outstanding.
        assert self.coord.lease("b")["unit"] is None
        self.coord.submit("a", self.cid, held["lease_id"],
                          held["round"], held["shard"],
                          _fake_result(held["round"], held["shard"]))
        opened = self.coord.lease("b")["unit"]
        assert opened is not None and opened["round"] == 1

    def test_round_advances_when_round_zero_done(self):
        self._drain_round("a", expect_round=0)
        unit = self.coord.lease("a")["unit"]
        assert unit is not None and unit["round"] == 1
        self._drain_round_from(unit, "a")
        c = self.coord.campaign(self.cid)
        assert c.done and c.merged is not None

    def _drain_round_from(self, first_unit, agent_id):
        unit = first_unit
        while unit is not None:
            self.coord.submit(agent_id, self.cid, unit["lease_id"],
                              unit["round"], unit["shard"],
                              _fake_result(unit["round"], unit["shard"]))
            unit = self.coord.lease(agent_id)["unit"]

    def test_repoll_regrants_same_lease(self):
        first = self.coord.lease("a")["unit"]
        again = self.coord.lease("a")["unit"]
        assert again["lease_id"] == first["lease_id"]
        assert (again["round"], again["shard"]) \
            == (first["round"], first["shard"])
        assert again["attempt"] == first["attempt"] == 1

    def test_expired_lease_is_reassigned_with_attempt_bump(self):
        first = self.coord.lease("a")["unit"]
        self.clock.now += 31.0  # past lease timeout, within heartbeat?
        # (heartbeat timeout is smaller, but "a" is also swept LOST —
        # either path must release the unit for "b")
        second = self.coord.lease("b")["unit"]
        assert (second["round"], second["shard"]) \
            == (first["round"], first["shard"])
        assert second["lease_id"] != first["lease_id"]
        assert second["attempt"] == 2

    def test_silent_agent_is_lost_and_leases_release(self):
        self.coord.lease("a")
        self.clock.now += 11.0  # heartbeat timeout 10s < lease 30s
        self.coord.heartbeat("b")
        states = {a["agent_id"]: a["state"]
                  for a in self.coord.status()["agents"]}
        assert states == {"a": "lost", "b": "alive"}
        unit = self.coord.lease("b")["unit"]
        assert unit is not None and unit["attempt"] == 2
        # A lost agent that comes back is alive again.
        self.coord.heartbeat("a")
        states = {a["agent_id"]: a["state"]
                  for a in self.coord.status()["agents"]}
        assert states["a"] == "alive"

    def test_submit_is_idempotent_and_flags_mismatch(self):
        unit = self.coord.lease("a")["unit"]
        args = ("a", self.cid, unit["lease_id"], unit["round"],
                unit["shard"])
        first = self.coord.submit(*args, _fake_result(
            unit["round"], unit["shard"]))
        assert first == {"ok": True, "accepted": True,
                         "duplicate": False, "mismatch": False}
        dup = self.coord.submit(*args, _fake_result(
            unit["round"], unit["shard"]))
        assert dup["duplicate"] and not dup["mismatch"]
        bad = self.coord.submit(*args, _fake_result(
            unit["round"], unit["shard"], digest="OTHER"))
        assert bad["duplicate"] and bad["mismatch"]

    def test_late_submit_after_reassignment_is_accepted(self):
        old = self.coord.lease("a")["unit"]
        self.clock.now += 31.0
        new = self.coord.lease("b")["unit"]
        assert (new["round"], new["shard"]) == (old["round"],
                                                old["shard"])
        # "a" finally answers with its stale lease: the bytes are
        # deterministic, so the result is accepted, and "b"'s later
        # submit becomes the duplicate.
        late = self.coord.submit("a", self.cid, old["lease_id"],
                                 old["round"], old["shard"],
                                 _fake_result(old["round"],
                                              old["shard"]))
        assert late["accepted"] and not late["duplicate"]
        dup = self.coord.submit("b", self.cid, new["lease_id"],
                                new["round"], new["shard"],
                                _fake_result(new["round"],
                                             new["shard"]))
        assert dup["duplicate"] and not dup["mismatch"]

    def test_unknown_campaign_and_unit_rejected(self):
        assert not self.coord.submit("a", "c999-nope", "l1", 0, 0,
                                     _fake_result(0, 0))["ok"]
        assert not self.coord.submit("a", self.cid, "l1", 99, 99,
                                     _fake_result(99, 99))["ok"]

    def test_drain_tells_agents_to_shut_down(self):
        self.coord.drain()
        assert self.coord.lease("a")["shutdown"] is True
        assert self.coord.lease("a")["unit"] is None
        assert self.coord.register("z")["shutdown"] is True

    def test_long_poll_deadline_ignores_the_injected_clock(self):
        # Every round-0 unit is out and the fake clock never moves:
        # the wait must still end, on the real clock.
        for i in range(SPEC.shards):
            assert self.coord.lease(f"a{i}")["unit"] is not None
        t0 = time.monotonic()
        reply = self.coord.lease("b", wait_s=0.3)
        assert reply == {"ok": True, "unit": None, "shutdown": False}
        assert 0.25 <= time.monotonic() - t0 < 5.0

    def test_finished_campaigns_are_not_walked(self, tmp_path, request):
        from repro.eventlog import EventLog

        log = EventLog(tmp_path / "ev", fsync=False)
        request.addfinalizer(log.close)
        coord = FleetCoordinator(heartbeat_timeout_s=10.0,
                                 lease_timeout_s=30.0, clock=self.clock,
                                 eventlog=log)
        first = coord.submit_campaign(SPEC)
        _run_to_merge(coord, first, "a")
        done = coord.campaign(first)
        last = (SPEC.rounds - 1, SPEC.shards - 1)
        done.units = _Unwalkable(done.units)
        other = CampaignSpec(seed=SEED, scale=0.1, rounds=2, shards=2,
                             probes_per_shard=2, targets_per_probe=2)
        second = coord.submit_campaign(other)
        assert coord.submit_campaign(other) == second
        assert coord.heartbeat("b")["ok"]
        # A late duplicate for the finished campaign is a lookup.
        assert coord.submit("a", first, "l0", *last,
                            _fake_result(*last))["duplicate"]
        _run_to_merge(coord, second, "b")
        assert coord.campaign(second).done
        assert coord.lease("b") == {"ok": True, "unit": None,
                                    "shutdown": False}


# ----------------------------------------------------------------------
# Long-poll leases (real clock; slack wide enough for a slow host)
# ----------------------------------------------------------------------
class _Call(threading.Thread):
    """Run ``fn()`` on a thread; keep its result and when it returned."""

    def __init__(self, fn) -> None:
        super().__init__(daemon=True)
        self._fn = fn
        self.result = None
        self.returned_at = None

    def run(self) -> None:
        self.result = self._fn()
        self.returned_at = time.monotonic()


def _waiting(fn) -> _Call:
    call = _Call(fn)
    call.start()
    time.sleep(0.2)
    assert call.is_alive(), "answered at once instead of waiting"
    return call


def _answered_within(call: _Call, since: float, slack_s: float) -> None:
    call.join(timeout=10.0)
    assert not call.is_alive()
    assert call.returned_at - since < slack_s


class TestLongPoll:
    def test_barrier_lease_returns_when_the_round_opens(self):
        coord = FleetCoordinator()
        cid = coord.submit_campaign(SPEC)
        held = coord.lease("a")["unit"]
        for _ in range(SPEC.shards - 1):
            _submit(coord, "b", cid, coord.lease("b")["unit"])
        call = _waiting(lambda: coord.lease("b", wait_s=5.0))
        _submit(coord, "a", cid, held)
        _answered_within(call, time.monotonic(), 1.0)
        assert call.result["unit"]["round"] == 1

    def test_waiting_lease_wakes_on_a_new_campaign(self):
        coord = FleetCoordinator()
        call = _waiting(lambda: coord.lease("a", wait_s=5.0))
        cid = coord.submit_campaign(SPEC)
        _answered_within(call, time.monotonic(), 1.0)
        assert call.result["unit"]["campaign_id"] == cid

    def test_waiting_lease_wakes_on_drain(self):
        coord = FleetCoordinator()
        call = _waiting(lambda: coord.lease("a", wait_s=5.0))
        coord.drain()
        _answered_within(call, time.monotonic(), 1.0)
        assert call.result == {"ok": True, "unit": None, "shutdown": True}

    def test_wait_is_capped_at_half_the_heartbeat_timeout(self):
        coord = FleetCoordinator(heartbeat_timeout_s=2.0)
        t0 = time.monotonic()
        reply = coord.lease("a", wait_s=30.0)
        assert reply == {"ok": True, "unit": None, "shutdown": False}
        assert 0.9 <= time.monotonic() - t0 < 5.0
        states = {a["agent_id"]: a["state"]
                  for a in coord.status()["agents"]}
        assert states == {"a": "alive"}

    def test_zero_or_negative_wait_answers_at_once(self):
        coord = FleetCoordinator()
        for doc in ({}, {"wait_s": 0}, {"wait_s": -3.0}):
            t0 = time.monotonic()
            reply = rpc.dispatch(coord, {"op": "lease", "agent_id": "a",
                                         **doc})
            assert reply == {"ok": True, "unit": None, "shutdown": False}
            assert time.monotonic() - t0 < 0.5

    def test_non_numeric_wait_is_refused(self):
        coord = FleetCoordinator()
        cid = coord.submit_campaign(SPEC)
        for op in ("lease", "campaign_status"):
            for bad in ("soon", None, True, [1.0]):
                reply = rpc.dispatch(coord, {"op": op, "agent_id": "a",
                                             "campaign_id": cid,
                                             "wait_s": bad})
                assert reply["ok"] is False
                assert "wait_s" in reply["error"]
        assert coord.status()["agents"] == []

    def test_campaign_status_wait_returns_on_merge(self):
        coord = FleetCoordinator()
        cid = coord.submit_campaign(SPEC)
        for _ in range(len(SPEC.units()) - 1):
            _submit(coord, "a", cid, coord.lease("a")["unit"])
        last = coord.lease("a")["unit"]
        status = {"op": "campaign_status", "campaign_id": cid,
                  "include_result": True}
        t0 = time.monotonic()
        assert rpc.dispatch(coord, status)["done"] is False
        assert time.monotonic() - t0 < 0.5
        call = _waiting(lambda: rpc.dispatch(coord,
                                             {**status, "wait_s": 5.0}))
        _submit(coord, "a", cid, last)
        _answered_within(call, time.monotonic(), 1.0)
        assert call.result["done"] is True
        assert call.result["result"] == coord.campaign(cid).merged

    def test_idle_agent_only_leases(self):
        coord = FleetCoordinator()
        ops: list[str] = []

        class Recording(LocalClient):
            def call(self, doc, ident=""):
                ops.append(doc["op"])
                return super().call(doc, ident=ident)

        agent = Agent(Recording(coord), "idle", poll_s=0.1,
                      max_idle_polls=3)
        t0 = time.monotonic()
        stats = agent.run()
        # Three idle polls, each waited out at the coordinator.
        assert 0.25 <= time.monotonic() - t0 < 5.0
        assert ops == ["register", "lease", "lease", "lease"]
        assert stats.polls == 3

    def test_agent_refuses_a_poll_not_below_its_rpc_timeout(self, capsys):
        from repro.cli import main

        assert main(["agent", "--connect", "127.0.0.1:9", "--poll", "10",
                     "--timeout", "10"]) == 2
        assert "--poll" in capsys.readouterr().err


# ----------------------------------------------------------------------
# End-to-end byte identity: serial vs threads vs processes-with-a-kill
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_four_inprocess_agents_match_serial(self, oracle):
        _, want = oracle
        coord = FleetCoordinator(heartbeat_timeout_s=5.0,
                                 lease_timeout_s=5.0)
        cid = coord.submit_campaign(SPEC)
        pairs = spawn_local_agents(coord, 4)
        merged = coord.wait(cid, timeout=120.0)
        coord.drain()
        for thread, _ in pairs:
            thread.join(timeout=30.0)
        assert merged is not None
        assert merged_digest(merged) == want
        done = sum(a["units_done"]
                   for a in coord.status()["agents"])
        assert done == len(SPEC.units())

    def test_inprocess_crash_is_survived(self, oracle):
        _, want = oracle
        faults.configure("fleet.agent_crash=1x1")
        coord = FleetCoordinator(heartbeat_timeout_s=1.0,
                                 lease_timeout_s=2.0)
        cid = coord.submit_campaign(SPEC)
        pairs = spawn_local_agents(coord, 3)
        merged = coord.wait(cid, timeout=120.0)
        coord.drain()
        for thread, _ in pairs:
            thread.join(timeout=30.0)
        assert merged is not None
        assert merged_digest(merged) == want
        crashed = [a for _, a in pairs if a.stats.errors]
        assert len(crashed) == 1
        states = {a["agent_id"]: a["state"]
                  for a in coord.status()["agents"]}
        assert states[crashed[0].stats.agent_id] == "lost"

    def test_four_subprocess_agents_one_killed_match_serial(
            self, oracle, tmp_path):
        _, want = oracle
        coord = FleetCoordinator(heartbeat_timeout_s=2.0,
                                 lease_timeout_s=3.0)
        server = CoordinatorServer(coord).start()
        host, port = server.address
        cid = coord.submit_campaign(SPEC)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve()
                                .parents[1] / "src")
        env.pop("REPRO_FAULTS", None)
        procs = []
        try:
            for i in range(4):
                agent_env = dict(env)
                if i == 0:
                    agent_env["REPRO_FAULTS"] = "fleet.agent_crash=1x1"
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "agent",
                     "--connect", f"{host}:{port}",
                     "--agent-id", f"t-{i}",
                     "--poll", "0.05", "--exit-when-idle", "200"],
                    env=agent_env, stdout=subprocess.DEVNULL))
            merged = coord.wait(cid, timeout=180.0)
            assert merged is not None, "campaign stalled after kill"
            assert merged_digest(merged) == want
            coord.drain()
            codes = [p.wait(timeout=30) for p in procs]
            assert codes[0] == faults.CRASH_EXIT_CODE
            assert codes[1:] == [0, 0, 0]
            states = {a["agent_id"]: a["state"]
                      for a in coord.status()["agents"]}
            assert states["t-0"] == "lost"
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            server.stop()


# ----------------------------------------------------------------------
# Message loss: dropped RPCs are repaired by retry + idempotency
# ----------------------------------------------------------------------
class TestMessageLoss:
    def test_dropped_messages_do_not_change_the_artifact(self, oracle):
        _, want = oracle
        # Drop the first 6 fleet RPC legs (requests and responses
        # alternate fault-site occurrences); retries must repair all.
        faults.configure("fleet.msg_drop=1x6")
        coord = FleetCoordinator(heartbeat_timeout_s=30.0,
                                 lease_timeout_s=30.0)
        cid = coord.submit_campaign(SPEC)
        pairs = spawn_local_agents(coord, 2)
        merged = coord.wait(cid, timeout=120.0)
        coord.drain()
        for thread, _ in pairs:
            thread.join(timeout=30.0)
        assert merged is not None
        assert merged_digest(merged) == want

    def test_local_client_retries_through_drops(self):
        faults.configure("fleet.msg_drop=1x2")
        coord = FleetCoordinator()
        client = LocalClient(coord, retries=5)
        reply = client.call({"op": "register", "agent_id": "r"},
                            ident="r")
        assert reply["ok"]
        # The drops were consumed by retries, not lost silently.
        assert faults.should_fire("fleet.msg_drop", "anything") is False


# ----------------------------------------------------------------------
# Idempotency when shards exceed the plan
# ----------------------------------------------------------------------
class TestOversizedShards:
    def test_resubmitting_an_oversized_spec_returns_one_campaign(self):
        spec = CampaignSpec(seed=SEED, scale=0.1, rounds=1, shards=10000,
                            probes_per_shard=2, targets_per_probe=2)
        coord = FleetCoordinator()
        cid = coord.submit_campaign(spec)
        assert coord.submit_campaign(spec) == cid
        assert [c["campaign_id"] for c in coord.status()["campaigns"]] \
            == [cid]
        capped = coord.campaign(cid).spec
        assert capped.shards < spec.shards
        pairs = spawn_local_agents(coord, 2)
        merged = coord.wait(cid, timeout=120.0)
        coord.drain()
        for thread, _ in pairs:
            thread.join(timeout=30.0)
        assert merged is not None
        assert merged_digest(merged) == \
            merged_digest(run_campaign_serial(capped))


# ----------------------------------------------------------------------
# World builds run outside the coordinator lock
# ----------------------------------------------------------------------
class TestSubmitBuildsOutsideTheLock:
    @pytest.fixture()
    def slow_build(self, monkeypatch):
        import repro.fleet.coordinator as coordinator

        def slow_bundle_for(seed: int, scale: float):
            time.sleep(0.5)
            return bundle_for(seed, scale)

        monkeypatch.setattr(coordinator, "bundle_for", slow_bundle_for)

    def test_heartbeat_answers_during_a_first_use_build(self,
                                                        slow_build):
        coord = FleetCoordinator()
        submit = _Call(lambda: coord.submit_campaign(SPEC))
        submit.start()
        time.sleep(0.1)
        assert submit.is_alive()
        since = time.monotonic()
        assert coord.heartbeat("a")["ok"]
        assert time.monotonic() - since < 0.1
        submit.join(timeout=30.0)
        assert not submit.is_alive()
        assert submit.result.startswith("c001-")

    def test_concurrent_identical_submits_return_one_id(self,
                                                        slow_build):
        coord = FleetCoordinator()
        calls = [_Call(lambda: coord.submit_campaign(SPEC))
                 for _ in range(2)]
        for call in calls:
            call.start()
        for call in calls:
            call.join(timeout=30.0)
            assert not call.is_alive()
        assert calls[0].result == calls[1].result
        assert len(coord.status()["campaigns"]) == 1


# ----------------------------------------------------------------------
# Artifact store + event trail integration
# ----------------------------------------------------------------------
class TestIntegration:
    def test_finished_campaign_lands_in_store_and_eventlog(
            self, oracle, tmp_path):
        from repro.eventlog import EventLog, EventType
        from repro.store import ArtifactStore, canonical_bytes

        doc, want = oracle
        log = EventLog(tmp_path / "ev", fsync=False)
        store = ArtifactStore(root=tmp_path / "store")
        coord = FleetCoordinator(eventlog=log, store=store)
        cid = coord.submit_campaign(SPEC)
        pairs = spawn_local_agents(coord, 2)
        merged = coord.wait(cid, timeout=120.0)
        coord.drain()
        for thread, _ in pairs:
            thread.join(timeout=30.0)
        assert merged is not None
        c = coord.campaign(cid)
        assert c.digest == want
        assert c.artifact_digest is not None
        payload = store.get_by_digest(c.artifact_digest)
        assert payload == canonical_bytes(c.merged)
        types = {e.etype for e in log.read()}
        assert {EventType.CAMPAIGN_BEGIN, EventType.AGENT_JOIN,
                EventType.LEASE_GRANTED, EventType.SHARD_DONE,
                EventType.CAMPAIGN_DONE} <= types
