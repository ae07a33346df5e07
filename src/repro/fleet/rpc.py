"""Fleet wire protocol: one JSON document per TCP connection.

Deliberately minimal — a request is a single JSON line, the response
is a single JSON line, and the connection closes.  No persistent
sockets, no framing state machines: every exchange is independently
retryable, which is the property the loss-tolerance story rests on.
Agents assume any message can vanish (`fleet.msg_drop` injects
exactly that, on either leg) and simply retry; every coordinator
operation is idempotent, so retries are safe by construction.

``lease`` and ``campaign_status`` take an optional ``wait_s``: the
longest the coordinator may hold the request open before answering
(clamped by :meth:`FleetCoordinator.clamp_wait`; absent or 0 answers
at once).  A lease answers as soon as a unit can be granted, a status
as soon as the campaign merges.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any, Optional

from repro import faults, telemetry
from repro.fleet.campaign import CampaignSpec
from repro.fleet.coordinator import FleetCoordinator

_RPC = telemetry.counter(
    "repro_fleet_rpc_total", "Fleet RPC requests served",
    labels=("op",))
_DROPS = telemetry.counter(
    "repro_fleet_msg_dropped_total",
    "Fleet protocol messages lost (injected)", labels=("leg",))

#: Bound on one request/response line (a submit carries one unit doc).
MAX_LINE_BYTES = 4 << 20

#: Client retry schedule: attempt n sleeps ``BACKOFF_S * n``.
DEFAULT_RETRIES = 5
BACKOFF_S = 0.05


class MessageDropped(OSError):
    """An injected in-flight message loss (client retries)."""


class RpcError(RuntimeError):
    """The coordinator rejected the request."""


def _read_line(sock: socket.socket) -> bytes:
    chunks: list[bytes] = []
    size = 0
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
        size += len(chunk)
        if chunk.endswith(b"\n") or size > MAX_LINE_BYTES:
            break
    return b"".join(chunks)


def dispatch(coordinator: FleetCoordinator,
             doc: dict[str, Any]) -> dict[str, Any]:
    """Execute one protocol operation against ``coordinator``.

    Shared by the TCP server and the in-process ``LocalClient`` so
    both paths exercise identical semantics.
    """
    op = doc.get("op")
    if telemetry.enabled() and isinstance(op, str):
        _RPC.labels(op=op).inc()
    agent_id = str(doc.get("agent_id", ""))
    pid = int(doc.get("pid", 0))
    wait_s = doc.get("wait_s", 0)
    if isinstance(wait_s, bool) or not isinstance(wait_s, (int, float)):
        return {"ok": False,
                "error": f"wait_s must be a number, got {wait_s!r}"}
    if op == "register":
        return coordinator.register(agent_id, pid=pid)
    if op == "heartbeat":
        return coordinator.heartbeat(agent_id, pid=pid)
    if op == "lease":
        return coordinator.lease(agent_id, pid=pid, wait_s=wait_s)
    if op == "submit":
        return coordinator.submit(
            agent_id, str(doc["campaign_id"]), str(doc["lease_id"]),
            int(doc["round"]), int(doc["shard"]), doc["result"])
    if op == "campaign":
        spec = CampaignSpec.from_dict(doc["spec"])
        return {"ok": True,
                "campaign_id": coordinator.submit_campaign(spec)}
    if op == "campaign_status":
        c = coordinator.campaign(str(doc.get("campaign_id", "")))
        if c is None:
            return {"ok": False, "error": "unknown campaign"}
        coordinator.wait(c.campaign_id,
                         timeout=coordinator.clamp_wait(wait_s))
        out = {"ok": True, **c.to_dict()}
        if doc.get("include_result") and c.done:
            out["result"] = c.merged
        return out
    if op == "status":
        return {"ok": True, **coordinator.status()}
    if op == "drain":
        coordinator.drain()
        return {"ok": True}
    return {"ok": False, "error": f"unknown op {op!r}"}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via TCP
        line = self.rfile.readline(MAX_LINE_BYTES)
        if not line.strip():
            return
        try:
            doc = json.loads(line)
            resp = dispatch(self.server.coordinator, doc)
        except Exception as exc:
            resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        self.wfile.write(json.dumps(resp).encode() + b"\n")


class CoordinatorServer(socketserver.ThreadingTCPServer):
    """TCP front for a :class:`FleetCoordinator` (port 0 = ephemeral)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, coordinator: FleetCoordinator,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__((host, port), _Handler)
        self.coordinator = coordinator
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self.socket.getsockname()[:2]

    def start(self) -> "CoordinatorServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="fleet-rpc", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


def raw_call(address: tuple[str, int], doc: dict[str, Any],
             timeout: float = 10.0) -> dict[str, Any]:
    """One request/response exchange, no retries, no fault injection."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(json.dumps(doc).encode() + b"\n")
        sock.shutdown(socket.SHUT_WR)
        line = _read_line(sock)
    if not line.strip():
        raise RpcError("empty response")
    return json.loads(line)


def maybe_drop(op: str, ident: str, leg: str) -> None:
    """Injection point for ``fleet.msg_drop`` (either protocol leg).

    ``leg="request"`` fires *before* the operation reaches the
    coordinator (the coordinator never sees it); ``leg="response"``
    fires after it executed (the coordinator's state moved but the
    caller never learns) — the latter is what makes idempotent
    retries mandatory, so both are injected explicitly.
    """
    if faults.should_fire("fleet.msg_drop", f"{leg}:{op}:{ident}"):
        if telemetry.enabled():
            _DROPS.labels(leg=leg).inc()
        raise MessageDropped(f"injected {leg} loss for {op}")


def call(address: tuple[str, int], doc: dict[str, Any],
         timeout: float = 10.0, retries: int = DEFAULT_RETRIES,
         ident: str = "") -> dict[str, Any]:
    """Exchange ``doc`` with the coordinator, retrying lost messages.

    Retries cover connection failures, timeouts and injected drops
    with linear backoff; the terminal failure re-raises the last
    error so callers see the real cause.
    """
    op = str(doc.get("op", ""))
    last: Optional[Exception] = None
    for attempt in range(retries + 1):
        try:
            maybe_drop(op, ident, "request")
            resp = raw_call(address, doc, timeout=timeout)
            maybe_drop(op, ident, "response")
            return resp
        except (OSError, ValueError, RpcError) as exc:
            last = exc
            if attempt < retries:
                time.sleep(BACKOFF_S * (attempt + 1))
    assert last is not None
    raise last


__all__ = [
    "BACKOFF_S", "CoordinatorServer", "DEFAULT_RETRIES",
    "MAX_LINE_BYTES", "MessageDropped", "RpcError", "call",
    "dispatch", "maybe_drop", "raw_call",
]
