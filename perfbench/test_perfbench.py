"""Self-tests for the benchmark's own logic.

Run from the repository root: ``python -m pytest perfbench -q``.  The
last test starts real ``repro`` processes (about 15 s on 2 cores).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import layers, plan, procs, report, workloads  # noqa: E402
from perfbench.oracle import oracle_etag, serve_verdict  # noqa: E402
from perfbench.wire import Connection, Malformed, Reply, parse_head  # noqa: E402


# -- plans --------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed: plan.iter_warm(seed, 0), lambda seed: plan.iter_warm(seed, 1),
    lambda seed: plan.iter_cold(seed, 0), plan.iter_campaigns])
def test_plan_is_a_pure_function_of_the_seed(make):
    first = list(itertools.islice(make(7), 300))
    assert first == list(itertools.islice(make(7), 300))
    assert first != list(itertools.islice(make(8), 300))


def test_warm_mix_and_cold_uniqueness():
    reqs = list(itertools.islice(plan.iter_warm(3, 0), 20000))
    share = {kind: 0 for kind, _ in plan.WARM_MIX}
    for r in reqs:
        kind = "revalidate" if r.revalidate else \
            "snapshot" if r.endpoint == plan.SNAPSHOT else "get"
        share[kind] += 1 / len(reqs)
    for kind, expected in plan.WARM_MIX:
        assert abs(share[kind] - expected) < 0.02
    assert {r.world_seed for r in reqs} == {plan.warm_world(3)}
    cold = [r.world_seed for conn in (0, 1)
            for r in itertools.islice(plan.iter_cold(3, conn), 5000)]
    assert len(set(cold)) == len(cold) and max(cold) < 2 ** 31


# -- oracle verdicts and strict parsing ---------------------------------

PAYLOAD = b'{"endpoint":"summary","result":{}}'
EXPECTED = (PAYLOAD, oracle_etag(PAYLOAD))


def test_oracle_flags_each_failure_kind():
    ok = Reply(200, {"etag": oracle_etag(PAYLOAD)}, PAYLOAD)
    assert serve_verdict(ok, EXPECTED, False) is None
    flipped = PAYLOAD[:5] + bytes([PAYLOAD[5] ^ 1]) + PAYLOAD[6:]
    assert serve_verdict(Reply(200, {}, flipped), EXPECTED, False) == "bytes"
    stale = Reply(200, {"x-repro-cache": "stale"}, PAYLOAD)
    assert serve_verdict(stale, EXPECTED, False) == "stale"
    good_304 = Reply(304, {"etag": oracle_etag(PAYLOAD)})
    assert serve_verdict(good_304, EXPECTED, True) is None
    assert serve_verdict(good_304, EXPECTED, False) == "status"
    bad_304 = Reply(304, {"etag": oracle_etag(flipped)})
    assert serve_verdict(bad_304, EXPECTED, True) == "etag"
    assert serve_verdict(Reply(503), EXPECTED, False) == "status"


def test_parse_head_is_strict():
    status, fields = parse_head(
        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nETag: \"x\"")
    assert status == 200 and fields["content-length"] == "3"
    for head in (b"HTTP/1.1 503 X\r\nX-Repro-Degraded: job failed\n  "
                 b"Traceback\r\nContent-Length: 0",
                 b"HTTP/1.1 200 OK\nContent-Length: 0",
                 b"HTTP/1.1 200 OK\r\n folded: yes",
                 b"HTTP/1.1 200 OK\r\nno colon here",
                 b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n"
                 b"Content-Length: 2",
                 b"SPDY/3 200 OK"):
        with pytest.raises(Malformed):
            parse_head(head)


class _OneShotServer:
    """A localhost socket that answers every request with ``reply``."""

    def __init__(self, reply: bytes | None) -> None:
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.reply = reply
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.sock.accept()
        with conn:
            conn.recv(65536)
            if self.reply is not None:
                conn.sendall(self.reply)
            conn.recv(65536)   # hold the connection open until closed

    def close(self) -> None:
        self.sock.close()
        self.thread.join(timeout=5)


def test_degraded_head_is_malformed_not_a_hang():
    server = _OneShotServer(
        b"HTTP/1.1 200 OK\r\nX-Repro-Degraded: job failed: Traceback\n"
        b"  File x\r\nContent-Length: 2\r\n\r\n{}")
    conn = Connection("127.0.0.1", server.port, timeout=5.0)
    reply, latency, kind = workloads._serve_op(conn, "/v1/summary", {})
    assert (reply, kind) == (None, "malformed")
    server.close()


def test_timeout_is_a_failure():
    server = _OneShotServer(None)
    conn = Connection("127.0.0.1", server.port, timeout=0.2)
    reply, latency, kind = workloads._serve_op(conn, "/v1/summary", {})
    assert (reply, kind) == (None, "timeout")
    server.close()


# -- percentiles --------------------------------------------------------

#: Fewest successful operations a 20 s run collected on the 2-core
#: reference host, per workload (see README.md).
FEWEST_SAMPLES = {"serve_warm": 1294, "serve_cold": 87, "campaign": 60}


def test_tail_is_at_least_p50_with_ten_beyond():
    rng = random.Random(1)
    for workload, q in report.TAIL_Q.items():
        for n in range(2, 400):
            samples = [rng.lognormvariate(0, 1) for _ in range(n)]
            phase = report.Phase(latencies=samples, work=n,
                                 window=(0.0, 1.0), setups=[1.0])
            values = report.end_to_end(phase, workload)
            assert values["tail_ms"] >= values["p50_ms"]
        needed = FEWEST_SAMPLES[workload]
        ordered = sorted(rng.random() for _ in range(needed))
        assert report.beyond(ordered, q) >= 10
    ties = [1.0] * 50 + [2.0] * 50
    assert report.nearest_rank(ties, 0.75) >= 1.5


# -- spans --------------------------------------------------------------

def test_self_time_on_a_synthetic_tree():
    rows = [
        (1, 0, "service.dispatch", 0.0, 10.0, "t0-0"),
        (2, 1, "routing.tables", 1.0, 4.0, 3),
        (3, 2, "routing.tables", 2.0, 3.0, 1),
        (4, 1, "measurement.traceroute", 3.5, 6.0, None),  # overlaps 2
        (5, 0, "measurement.ping", 20.0, 21.0, None),
    ]
    spans = {s.id: s for s in layers.link({"serve": rows})}
    assert layers.self_time(spans[1]) == pytest.approx(10.0 - 5.0)
    assert layers.self_time(spans[2]) == pytest.approx(2.0)
    assert layers.self_time(spans[3]) == pytest.approx(1.0)
    m = layers.per_layer({"serve": rows}, (0.0, 30.0), [("t0-0", 12.0)],
                         {}, "serve_cold")
    assert m["routing.busy_s"] == pytest.approx(3.0)
    assert m["routing.tables"] == 3          # the outer span's count
    assert m["measurement.busy_s"] == pytest.approx(3.5)
    assert m["service.transport_ms"] == pytest.approx(2000.0)
    window_only = layers.per_layer({"serve": rows}, (15.0, 30.0), [], {},
                                   "serve_cold")
    assert window_only["measurement.pings"] == 1
    assert window_only["routing.tables"] == 0


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(report.TAIL_Q)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- process hygiene ----------------------------------------------------

def test_no_program_process_survives_a_run(monkeypatch):
    started: list[procs.Program] = []
    original = procs.Program.__init__

    def record(self, *args, **kwargs):
        original(self, *args, **kwargs)
        started.append(self)

    monkeypatch.setattr(procs.Program, "__init__", record)
    ctx = workloads.Context(ROOT, seed=5, traced=True)
    try:
        phase = workloads.run(ctx, "campaign", 0.5, 1)
        assert phase.failed == 0 and phase.latencies
        assert {"coordinator", "agent-0", "agent-1"} <= set(phase.spans)

        def boom(seed, conn):
            raise RuntimeError("client failure mid-run")
            yield

        monkeypatch.setattr(plan, "iter_cold", boom)
        with pytest.raises(RuntimeError, match="mid-run"):
            workloads.run(ctx, "serve_cold", 0.5, 1)
    finally:
        ctx.cleanup()
    assert len(started) == 4
    for prog in started:
        assert prog.proc.returncode is not None
        with pytest.raises(ProcessLookupError):
            os.kill(prog.pid, 0)
