"""The three closed-loop workloads.

Each ``run_*`` function sets the program up ``reps`` times on fresh
store and event-log directories; the median is ``setup_s``.  The first
half of the set-ups run before the timed window of ``seconds``, which
uses the last of them, and the rest after it, so the median samples
the host's speed at both ends of the run; the set-ups the window does
not use are killed, not stopped, since nothing in them is kept.  Peak
RSS and CPU time come from ``/proc``.  Every program process is stopped and reaped, and then
every output is checked against the oracle.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import tempfile
import threading
import time
from contextlib import ExitStack
from typing import Callable, Iterator

from perfbench import plan
from perfbench.oracle import CampaignOracle, ServeOracle, serve_verdict
from perfbench.procs import Program, wait_healthy
from perfbench.report import Phase
from perfbench.wire import REQUEST_ID, Connection, Malformed

#: Socket timeout per serve operation (a cold wait=1 request takes
#: about a second on a 2-core host).
WARM_TIMEOUT_S = 10.0
COLD_TIMEOUT_S = 30.0
#: A campaign that has not merged by then counts as ``unfinished``.
CAMPAIGN_TIMEOUT_S = 60.0
#: Client poll interval for ``campaign_status``.
CAMPAIGN_POLL_S = 0.01
#: Agents in the campaign fleet (one per core on the reference host).
AGENTS = 2
#: Keep-alive connections per serve workload.  serve_cold runs one,
#: not the two that concurrent users produce: on this code base two
#: concurrent cold requests can return another world's bytes (see
#: README.md), and a benchmark workload must be one on which no
#: operation fails.
CONNECTIONS = {"serve_warm": 2, "serve_cold": 1}


class Context:
    """Run-wide settings: checkout root, scratch dir, traced or not."""

    def __init__(self, root: str, seed: int, traced: bool) -> None:
        self.root, self.seed, self.traced = root, seed, traced
        #: Shared by the plain and traced phases, which replay one plan.
        self.serve_oracle = ServeOracle()
        self.campaign_oracle = CampaignOracle()
        work = os.path.join(root, "perfbench", "_work")
        os.makedirs(work, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=work)
        self._counter = itertools.count()

    def fresh_dir(self) -> str:
        path = os.path.join(self.scratch, f"s{next(self._counter)}")
        os.makedirs(path)
        return path

    def program(self, role: str, args: list[str], work: str) -> Program:
        spans = os.path.join(work, f"{role}.spans.json") \
            if self.traced else None
        return Program(self.root, role, args, spans)

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _read_spans(programs: list[Program]) -> dict[str, list]:
    out = {}
    for prog in programs:
        if prog.spans and os.path.exists(prog.spans):
            with open(prog.spans) as fh:
                out[prog.role] = json.load(fh)["spans"]
    return out


def _halves(reps: int) -> tuple[int, int]:
    """Set-ups before and after the timed window."""
    return (reps + 1) // 2, reps // 2


def _closed_loop(conns: int, deadline: float,
                 body: Callable[[int, float], None]) -> float:
    """Run ``body(conn, deadline)`` on ``conns`` threads; returns the
    time the last operation ended."""
    ends = [0.0] * conns
    errors: list[BaseException] = []

    def loop(i: int) -> None:
        try:
            body(i, deadline)
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)
        ends[i] = time.perf_counter()

    threads = [threading.Thread(target=loop, args=(i,), daemon=True)
               for i in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return max(ends)


def _serve_op(conn: Connection, target: str, headers: dict[str, str]):
    """One request; returns ``(reply, latency, failure_kind)``."""
    try:
        reply, latency = conn.get(target, headers)
        return reply, latency, None
    except Malformed:
        return None, 0.0, "malformed"
    except TimeoutError:
        return None, 0.0, "timeout"
    except OSError:
        return None, 0.0, "error"


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------

def _start_server(ctx: Context) -> tuple[Program, tuple]:
    work = ctx.fresh_dir()
    server = ctx.program("serve", [
        "serve", "--port", "0",
        "--store-dir", os.path.join(work, "store")], work)
    try:
        address = server.address()
        wait_healthy(lambda: Connection(*address, timeout=2.0))
    except BaseException:
        server.stop(signal.SIGKILL)
        raise
    return server, address


def _prewarm(ctx: Context, address, rid: str) -> None:
    """Request serve_warm's artifacts one at a time and check each."""
    conn = Connection(*address, timeout=COLD_TIMEOUT_S)
    for request in plan.warm_artifacts(ctx.seed):
        reply, _ = conn.get(request.target, {REQUEST_ID: rid})
        if serve_verdict(reply, ctx.serve_oracle.expected(request),
                         False) is not None:
            raise RuntimeError(f"prewarm of {request.target} failed "
                               f"(status {reply.status})")
    conn.close()


def _stop_server(server: Program, address, phase: Phase) -> None:
    """Read RSS and the public stats routes, then stop the server."""
    phase.rss_mb = server.vm_hwm_mb()
    if server.spans:
        conn = Connection(*address, timeout=10.0)
        for route in ("/v1/store/stats", "/v1/jobs"):
            reply, _ = conn.get(route)
            phase.stats[route] = json.loads(reply.body)
        conn.close()
    server.stop()


def run_serve(ctx: Context, workload: str, seconds: float, reps: int
              ) -> Phase:
    """serve_warm or serve_cold against one ``repro serve`` process."""
    phase = Phase()
    oracle = ctx.serve_oracle
    warm = workload == "serve_warm"
    if warm:
        for request in plan.warm_artifacts(ctx.seed):
            oracle.expected(request)   # oracle work before any timing

    def set_up(stack: ExitStack, rep: int) -> tuple[Program, tuple]:
        t0 = time.perf_counter()
        server, address = _start_server(ctx)
        stack.callback(server.stop)
        if warm:
            _prewarm(ctx, address, f"p{rep}")
        phase.setups.append(time.perf_counter() - t0)
        return server, address

    before, after = _halves(reps)
    with ExitStack() as stack:
        for rep in range(before):
            if rep:
                server.stop(signal.SIGKILL)
            server, address = set_up(stack, rep)

        cpu0 = server.cpu_s()
        lock = threading.Lock()
        records: list = []

        def body(i: int, deadline: float) -> None:
            conn = Connection(*address, timeout=WARM_TIMEOUT_S if warm
                              else COLD_TIMEOUT_S)
            requests: Iterator[plan.Request] = (
                plan.iter_warm if warm else plan.iter_cold)(ctx.seed, i)
            for n in itertools.count():
                if time.perf_counter() >= deadline:
                    break
                request = next(requests)
                rid = f"t{i}-{n}"
                headers = {REQUEST_ID: rid}
                if request.revalidate:
                    headers["If-None-Match"] = oracle.expected(request)[1]
                reply, latency, kind = _serve_op(conn, request.target,
                                                 headers)
                if kind is None and warm:
                    # Expected bytes and ETags were computed before the
                    # server started; only the comparison runs here.
                    kind = serve_verdict(reply, oracle.expected(request),
                                         request.revalidate)
                    reply = None       # checked: drop the body
                with lock:
                    records.append((request, rid, reply, latency, kind))
            conn.close()

        start = time.perf_counter()
        end = _closed_loop(CONNECTIONS[workload], start + seconds, body)
        phase.window = (start, end)
        phase.cpu_s = server.cpu_s() - cpu0
        _stop_server(server, address, phase)
        for rep in range(before, before + after):
            set_up(stack, rep)[0].stop(signal.SIGKILL)
    phase.spans = _read_spans([server])
    for request, rid, reply, latency, kind in records:
        if kind is None and reply is not None:
            kind = serve_verdict(reply, oracle.expected(request), False)
        phase.count(kind)
        if kind is None:
            phase.latencies.append(latency)
            phase.client.append((rid, latency))
    phase.work = len(phase.latencies)
    return phase


# ----------------------------------------------------------------------
# campaign workload
# ----------------------------------------------------------------------

class Fleet:
    """One coordinator plus :data:`AGENTS` agents."""

    def __init__(self, ctx: Context) -> None:
        from repro.fleet import rpc
        self.rpc = rpc
        work = ctx.fresh_dir()
        self.coordinator = ctx.program("coordinator", [
            "coordinator", "--port", "0",
            "--events-dir", os.path.join(work, "events"),
            "--store-dir", os.path.join(work, "store")], work)
        try:
            self.address = self.coordinator.address()
        except BaseException:
            self.coordinator.stop(signal.SIGKILL)
            raise
        connect = "%s:%d" % self.address
        self.agents = [ctx.program(f"agent-{i}",
                                   ["agent", "--connect", connect],
                                   work)
                       for i in range(AGENTS)]

    @property
    def programs(self) -> list[Program]:
        return [self.coordinator, *self.agents]

    def call(self, doc: dict) -> dict:
        return self.rpc.call(self.address, doc, timeout=10.0)

    def agents_status(self) -> list[dict]:
        return self.call({"op": "status"})["agents"]

    def warm_up(self, spec: dict) -> None:
        """Wait until every agent has registered, then run one campaign;
        each agent must have run a unit of it, which means it has built
        the campaign world."""
        deadline = time.perf_counter() + CAMPAIGN_TIMEOUT_S
        while len(self.agents_status()) < AGENTS:
            if time.perf_counter() > deadline:
                raise RuntimeError("agents never registered")
            time.sleep(CAMPAIGN_POLL_S)
        if self.run(spec, CAMPAIGN_TIMEOUT_S)[0] is None:
            raise RuntimeError("warm-up campaign did not merge")
        if not all(a["units_done"] > 0 for a in self.agents_status()):
            raise RuntimeError("an agent took no warm-up unit")

    def run(self, spec: dict, timeout: float):
        """Submit ``spec`` and poll until merged: ``(result, seconds)``;
        ``result`` is ``None`` if it did not merge within ``timeout``."""
        started = time.perf_counter()
        cid = self.call({"op": "campaign", "spec": spec})["campaign_id"]
        while True:
            status = self.call({"op": "campaign_status",
                                "campaign_id": cid,
                                "include_result": True})
            if status.get("done"):
                return status["result"], time.perf_counter() - started
            if time.perf_counter() - started > timeout:
                return None, time.perf_counter() - started
            time.sleep(CAMPAIGN_POLL_S)

    def stop(self) -> None:
        """Drain the agents through the fleet RPC, then the coordinator."""
        if self.coordinator.proc.poll() is None:
            try:
                self.call({"op": "drain"})
            except OSError:
                pass
        for agent in self.agents:
            agent.stop(sig=0, timeout=20.0)
        self.coordinator.stop()

    def kill(self) -> None:
        for prog in self.programs:
            prog.stop(signal.SIGKILL)


def run_campaign(ctx: Context, seconds: float, reps: int) -> Phase:
    phase = Phase()
    warmup = plan.warmup_spec(ctx.seed)

    def set_up(stack: ExitStack) -> Fleet:
        t0 = time.perf_counter()
        fleet = Fleet(ctx)
        stack.callback(fleet.stop)
        fleet.warm_up(warmup)
        phase.setups.append(time.perf_counter() - t0)
        return fleet

    before, after = _halves(reps)
    with ExitStack() as stack:
        for rep in range(before):
            if rep:
                fleet.kill()
            fleet = set_up(stack)

        cpu0 = sum(p.cpu_s() for p in fleet.programs)
        specs = plan.iter_campaigns(ctx.seed)
        records = []

        def body(i: int, deadline: float) -> None:
            while time.perf_counter() < deadline:
                spec = next(specs)
                opened = time.perf_counter()
                try:
                    result, latency = fleet.run(spec, CAMPAIGN_TIMEOUT_S)
                except (OSError, ValueError):
                    result, latency = None, 0.0
                records.append((spec, result, latency, opened))

        start = time.perf_counter()
        end = _closed_loop(1, start + seconds, body)
        phase.window = (start, end)
        phase.cpu_s = sum(p.cpu_s() for p in fleet.programs) - cpu0
        phase.rss_mb = max(p.vm_hwm_mb() for p in fleet.programs)
        if ctx.traced:
            phase.stats["status"] = fleet.call({"op": "status"})
        fleet.stop()
        for _ in range(after):
            set_up(stack).kill()
    phase.spans = _read_spans(fleet.programs)
    oracle = ctx.campaign_oracle
    from repro.fleet import merged_digest
    for spec, result, latency, opened in records:
        if result is None:
            kind = "unfinished"
        elif merged_digest(result) != oracle.digest(spec):
            kind = "digest"
        else:
            kind = None
        phase.count(kind)
        if kind is None:
            phase.latencies.append(latency)
            phase.work += result["totals"]["measurements"]
            phase.client.append((opened, opened + latency))
    return phase


def run(ctx: Context, workload: str, seconds: float, reps: int) -> Phase:
    if workload == "campaign":
        return run_campaign(ctx, seconds, reps)
    return run_serve(ctx, workload, seconds, reps)


__all__ = ["AGENTS", "CONNECTIONS", "Context", "run"]
