"""Threaded HTTP server: the Observatory as a queryable service.

Request flow for ``GET /v1/<endpoint>``::

    parse params ──> ArtifactKey(kind, seed, params, schema-version)
         │
         ├─ hot-tier hit ───────────> 200, cached bytes   (X-Repro-Source: hot)
         ├─ store hit ──────────────> 200, stored bytes   (X-Repro-Cache: hit)
         ├─ miss + cheap endpoint ──> compute, store ────> 200 (miss)
         ├─ miss + expensive ───────> submit job ────────> 202 {job_id,...}
         └─ miss + expensive + wait=1 ─> submit job, block, serve store

The payload placed in the store is the canonical JSON encoding of the
endpoint's deterministic document, and every path above — including
the in-memory hot tier (:class:`repro.service.hotcache.HotCache`) —
serves exactly those bytes: hot, cold and disk-warm responses are
byte-identical, which the service smoke test, the test suite and
perfbench's oracle (``perfbench/oracle.py``) all assert.

:class:`ObservatoryService` is the transport-agnostic core:
``dispatch(method, target, headers)`` implements GET/HEAD/DELETE plus
405-with-``Allow`` for everything else, so the threaded transport here
and the asyncio transport in :mod:`repro.service.aserver` share every
byte of routing, caching, job and degraded-mode logic.

Built on ``http.server.ThreadingHTTPServer`` only; no third-party
dependencies.  Telemetry: per-endpoint request counters and latency
histograms here, hot-tier counters in ``repro.service.hotcache``,
cache hit/miss/eviction counters in ``repro.store``, job lifecycle
counters in ``repro.service.jobs``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, TextIO
from urllib.parse import parse_qsl, urlsplit

from repro import telemetry
from repro.eventlog import EventLog, event_type_from_name
from repro.service.endpoints import BadRequest, ENDPOINTS, describe, \
    json_safe, parse_seed
from repro.service.hotcache import DEFAULT_HOT_BYTES, HotCache
from repro.service.jobs import JobQueue, JobState
from repro.store import ArtifactStore, canonical_bytes, digest_bytes

#: Ceiling for ``wait=1`` blocking requests (seconds).
MAX_WAIT_S = 300.0
#: Default / maximum rows returned by one ``/v1/events`` page.
EVENTS_PAGE = 512
EVENTS_PAGE_MAX = 4096
#: Default / maximum seconds a ``/v1/heartbeat/stream`` poll blocks.
STREAM_WAIT_S = 10.0
STREAM_WAIT_MAX_S = 30.0

_REQUESTS = telemetry.counter(
    "repro_service_requests_total",
    "HTTP requests served", labels=("endpoint", "status"))
_LATENCY = telemetry.histogram(
    "repro_service_request_seconds",
    "HTTP request wall-clock seconds", labels=("endpoint",))
_DEGRADED = telemetry.counter(
    "repro_service_degraded_total",
    "Responses served in degraded mode", labels=("endpoint", "reason"))
_NOT_MODIFIED = telemetry.counter(
    "repro_service_not_modified_total",
    "Conditional GETs answered 304 via ETag", labels=("endpoint",))


class Response:
    """A fully materialized HTTP response."""

    __slots__ = ("status", "body", "headers")

    def __init__(self, status: int, body: bytes,
                 headers: Optional[dict[str, str]] = None) -> None:
        self.status = status
        self.body = body
        self.headers = {"Content-Type": "application/json"}
        if headers:
            self.headers.update(headers)

    @classmethod
    def json(cls, status: int, doc: Any,
             headers: Optional[dict[str, str]] = None) -> "Response":
        return cls(status, canonical_bytes(doc), headers)

    @classmethod
    def error(cls, status: int, message: str,
              headers: Optional[dict[str, str]] = None) -> "Response":
        return cls.json(status, {"error": message, "status": status},
                        headers)

    def head(self) -> "Response":
        """The HEAD variant: same status and headers, no body.

        ``Content-Length`` is pinned to the entity's real size, as
        RFC 9110 wants — the handler layer must not overwrite it with
        the (empty) body length."""
        headers = dict(self.headers)
        headers["Content-Length"] = str(len(self.body))
        return Response(self.status, b"", headers)


class ObservatoryService:
    """Transport-independent request handling (testable without sockets)."""

    def __init__(self, store: ArtifactStore,
                 queue: Optional[JobQueue] = None,
                 default_seed: int = 2025,
                 events_dir: Optional[str] = None,
                 coordinator=None,
                 hot_cache_bytes: Optional[int] = None) -> None:
        self.store = store
        self.queue = queue if queue is not None else JobQueue()
        self.default_seed = default_seed
        self.events_dir = events_dir
        #: Attached :class:`repro.fleet.FleetCoordinator` (or None) —
        #: backs the live ``/v1/fleet/*`` surface.
        self.coordinator = coordinator
        #: In-memory hot tier over the store (0 bytes disables it).
        #: Subscribed to store invalidations so a hot entry can never
        #: outlive the durable artifact it mirrors.
        self.hot = HotCache(DEFAULT_HOT_BYTES if hot_cache_bytes is None
                            else hot_cache_bytes)
        self.store.add_invalidation_hook(self.hot.invalidate)
        #: Request-target -> (endpoint, ArtifactKey) memo for the fast
        #: path.  The mapping is pure (the key is a deterministic hash
        #: of endpoint/seed/params), so entries never need
        #: invalidating; the bound only caps memory under hostile
        #: target diversity.
        self._target_memo: "OrderedDict[str, tuple[Any, Any]]" \
            = OrderedDict()
        self._target_memo_lock = threading.Lock()
        self._events_lock = threading.Lock()
        self._eventlog: Optional[EventLog] = None
        self._heartbeat = None

    # -- event-log access ----------------------------------------------
    def _events(self) -> Optional[EventLog]:
        """The served event log (opened lazily; ``None`` if unset)."""
        if self.events_dir is None:
            return None
        if self._eventlog is None:
            self._eventlog = EventLog(self.events_dir)
        return self._eventlog

    def _analyzer(self, log: EventLog):
        """A read-side heartbeat detector over the served log.

        ``emit_alerts=False``: the serving process replays detection
        (a pure function of the stream, so it reaches the writer's
        exact alert set) without appending to a log it doesn't own.
        """
        if self._heartbeat is None:
            from repro.monitoring import HeartbeatAnalyzer
            self._heartbeat = HeartbeatAnalyzer(log, emit_alerts=False)
        return self._heartbeat

    # ------------------------------------------------------------------
    def dispatch(self, method: str, target: str,
                 headers: Optional[dict[str, str]] = None) -> Response:
        """One request, any method — the transport-agnostic entry.

        Both HTTP transports (threaded and asyncio) funnel every
        request through here, so method semantics are identical by
        construction: ``GET``/``HEAD`` route normally (``HEAD`` keeps
        the headers and the entity's ``Content-Length`` but drops the
        body), ``DELETE`` cancels jobs, and anything else is a ``405``
        carrying an ``Allow`` header.  Unexpected exceptions become a
        500 here — the request boundary — rather than per-transport.
        """
        try:
            method = method.upper()
            if method in ("GET", "HEAD"):
                response = self.handle(target, headers=headers)
                return response.head() if method == "HEAD" else response
            path = urlsplit(target).path.rstrip("/")
            if method == "DELETE":
                if path.startswith("/v1/jobs/"):
                    return self.cancel_job(path[len("/v1/jobs/"):])
                return Response.error(
                    405, f"DELETE not supported for {path!r}",
                    {"Allow": "GET, HEAD"})
            return Response.error(
                405, f"method {method} not allowed",
                {"Allow": self._allow_for(path)})
        except Exception as exc:  # noqa: BLE001 - request boundary
            return Response.error(500, f"internal error: {exc}")

    @staticmethod
    def _allow_for(path: str) -> str:
        """Methods a target supports (the 405 ``Allow`` header)."""
        if path.startswith("/v1/jobs/"):
            return "DELETE, GET, HEAD"
        return "GET, HEAD"

    def dispatch_fast(self, method: str, target: str,
                      headers: Optional[dict[str, str]] = None
                      ) -> Optional[Response]:
        """Serve a request from the hot tier alone, or return ``None``.

        The asyncio transport calls this on the event loop before
        paying the executor handoff: a ``GET``/``HEAD`` of a cached
        endpoint artifact whose key is hot needs no store access, no
        job queue and no blocking work, so dispatching it inline keeps
        the dominant production request class off the thread pool
        entirely.  Anything else — plumbing routes, misses, writes,
        malformed parameters — returns ``None`` and takes the normal
        :meth:`dispatch` path, which is the sole source of truth for
        semantics (a fast-served response must be byte-identical to
        what ``dispatch`` would have produced; the service test suite
        asserts exactly that).
        """
        method = method.upper()
        if method not in ("GET", "HEAD") or not self.hot.enabled:
            return None
        resolved = self._resolve_target(target)
        if resolved is None:
            return None
        endpoint, key = resolved
        hot = self.hot.get(key.digest, count_miss=False)
        if hot is None:
            return None
        payload, etag = hot
        out = {"X-Repro-Cache": "hit", "X-Repro-Source": "hot",
               "X-Repro-Key": key.digest}
        lowered = {k.lower(): v for k, v in (headers or {}).items()}
        response = self._maybe_not_modified(
            endpoint.name, payload, lowered, out, etag=etag)
        if response is None:
            response = Response(200, payload, out)
        if telemetry.enabled():
            _REQUESTS.labels(endpoint=endpoint.name,
                             status=str(response.status)).inc()
        return response.head() if method == "HEAD" else response

    #: Bound on the request-target memo (hostile-diversity cap).
    _TARGET_MEMO_MAX = 512

    def _resolve_target(self, target: str):
        """``(endpoint, ArtifactKey)`` for a well-formed ``/v1`` query
        target, memoized by the exact target string; ``None`` for
        anything the fast path must not touch.  Pure: a target always
        parses to the same key, so entries never go stale."""
        with self._target_memo_lock:
            resolved = self._target_memo.get(target)
            if resolved is not None:
                self._target_memo.move_to_end(target)
                return resolved
        split = urlsplit(target)
        path = split.path.rstrip("/")
        if not path.startswith("/v1/"):
            return None
        endpoint = ENDPOINTS.get(path[len("/v1/"):])
        if endpoint is None:
            return None
        query = dict(parse_qsl(split.query))
        try:
            seed = parse_seed(query, self.default_seed)
            params = endpoint.parse_params(query)
        except BadRequest:
            return None  # slow path owns the 400
        if query.get("wait", "0") not in ("0", "", "false"):
            return None  # wait requests may block: never fast-path
        resolved = (endpoint, endpoint.key(seed, params))
        with self._target_memo_lock:
            self._target_memo[target] = resolved
            while len(self._target_memo) > self._TARGET_MEMO_MAX:
                self._target_memo.popitem(last=False)
        return resolved

    def handle(self, target: str,
               headers: Optional[dict[str, str]] = None) -> Response:
        """Dispatch one GET by request target (path + query string).

        ``headers`` (case-insensitive) enables conditional requests:
        an ``If-None-Match`` that matches a store-backed endpoint's
        ETag is answered ``304`` with an empty body.
        """
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = dict(parse_qsl(split.query))
        lowered = {k.lower(): v for k, v in (headers or {}).items()}
        started = time.perf_counter()
        endpoint_label, response = self._route(path, query, lowered)
        if telemetry.enabled():
            _REQUESTS.labels(endpoint=endpoint_label,
                             status=str(response.status)).inc()
            _LATENCY.labels(endpoint=endpoint_label).observe(
                time.perf_counter() - started)
        return response

    # ------------------------------------------------------------------
    def _route(self, path: str, query: dict[str, str],
               headers: Optional[dict[str, str]] = None
               ) -> tuple[str, Response]:
        headers = headers or {}
        if path == "/healthz":
            return "healthz", Response.json(200, {"ok": True})
        if path == "/metrics":
            return "metrics", Response(
                200, telemetry.to_prometheus().encode(),
                {"Content-Type": "text/plain; version=0.0.4"})
        if path == "/v1/endpoints":
            return "endpoints", Response.json(
                200, {"endpoints": describe()})
        if path == "/v1/store/stats":
            stats = self.store.stats()
            stats["hot"] = self.hot.stats()
            return "store_stats", Response.json(200, stats)
        if path == "/v1/telemetry":
            return "telemetry", Response.json(
                200, json_safe(telemetry.to_json()),
                {"X-Repro-Cache": "live"})
        if path == "/v1/events":
            try:
                return "events", self._events_page(query)
            except BadRequest as exc:
                return "events", Response.error(400, str(exc))
        if path == "/v1/heartbeat/stream":
            try:
                return "heartbeat_stream", self._heartbeat_stream(query)
            except BadRequest as exc:
                return "heartbeat_stream", Response.error(400, str(exc))
        if path == "/v1/heartbeat":
            return "heartbeat", self._heartbeat_status()
        if path == "/v1/jobs":
            return "jobs", Response.json(
                200, self.queue.stats(), {"X-Repro-Cache": "live"})
        if path.startswith("/v1/jobs/"):
            return "jobs", self._job_status(path[len("/v1/jobs/"):])
        if path in ("/v1/fleet/agents", "/v1/fleet/campaigns"):
            label = "fleet_" + path.rsplit("/", 1)[1]
            return label, self._fleet_status(path)
        if path.startswith("/v1/"):
            name = path[len("/v1/"):]
            endpoint = ENDPOINTS.get(name)
            if endpoint is None:
                return name, Response.error(
                    404, f"unknown endpoint {name!r}; "
                         f"see /v1/endpoints")
            try:
                return name, self._query(endpoint, query, headers)
            except BadRequest as exc:
                return name, Response.error(400, str(exc))
        return "unknown", Response.error(404, f"no route for {path!r}")

    # -- fleet surface -------------------------------------------------
    def _fleet_status(self, path: str) -> Response:
        if self.coordinator is None:
            return Response.error(
                404, "fleet coordinator not attached; start with "
                     "'repro coordinator --http-port'")
        status = self.coordinator.status()
        section = path.rsplit("/", 1)[1]
        return Response.json(
            200, {section: status[section],
                  "draining": status["draining"]},
            {"X-Repro-Cache": "live"})

    # -- conditional GETs ----------------------------------------------
    @staticmethod
    def _etag_for(payload: bytes) -> str:
        return f'"{digest_bytes(payload)}"'

    @staticmethod
    def _etag_matches(if_none_match: str, etag: str) -> bool:
        if if_none_match.strip() == "*":
            return True
        bare = etag.strip('"')
        for candidate in if_none_match.split(","):
            candidate = candidate.strip()
            if candidate.startswith("W/"):
                candidate = candidate[2:]
            if candidate.strip('"') == bare:
                return True
        return False

    def _maybe_not_modified(self, endpoint_name: str, payload: bytes,
                            headers: dict[str, str],
                            extra: dict[str, str],
                            etag: Optional[str] = None
                            ) -> Optional[Response]:
        """A 304 for a matching ``If-None-Match``, else ``None``.

        The ETag is the payload's content digest — artifacts are
        canonical bytes, so the validator is exact, and the 304 still
        carries the ETag plus the cache-disposition headers.  A hot-
        tier hit passes the ``etag`` it memoized so the serving path
        never re-hashes the payload."""
        if etag is None:
            etag = self._etag_for(payload)
        extra["ETag"] = etag
        match = headers.get("if-none-match")
        if match and self._etag_matches(match, etag):
            if telemetry.enabled():
                _NOT_MODIFIED.labels(endpoint=endpoint_name).inc()
            return Response(304, b"", extra)
        return None

    def _admit_hot(self, key, payload: bytes, etag: str) -> None:
        """Admit freshly computed bytes to the hot tier, via the disk.

        The tier must only ever mirror bytes a *verified store read*
        can reproduce — trusting the write we just issued would let a
        silently corrupted store entry (``store.corrupt`` in the fault
        harness, bit rot in life) hide behind good in-memory bytes
        until eviction, serving 200s while the durable copy is trash.
        The read-back costs one verified disk read per cold compute;
        a mismatch (or a quarantined read) simply leaves the key cold,
        and the next request discovers the damage the normal way."""
        if not self.hot.enabled:
            return
        readback = self.store.get(key)
        if readback == payload:
            self.hot.put(key.digest, payload, etag)

    # ------------------------------------------------------------------
    def _query(self, endpoint, query: dict[str, str],
               headers: Optional[dict[str, str]] = None) -> Response:
        headers = headers or {}
        seed = parse_seed(query, self.default_seed)
        params = endpoint.parse_params(query)
        wait = query.get("wait", "0") not in ("0", "", "false")
        key = endpoint.key(seed, params)
        request_path = self._canonical_path(endpoint, seed, params)

        if self.hot.enabled:
            hot = self.hot.get(key.digest)
            if hot is not None:
                payload, etag = hot
                out = {"X-Repro-Cache": "hit",
                       "X-Repro-Source": "hot",
                       "X-Repro-Key": key.digest}
                not_modified = self._maybe_not_modified(
                    endpoint.name, payload, headers, out, etag=etag)
                if not_modified is not None:
                    return not_modified
                return Response(200, payload, out)

        cached = self.store.get(key)
        if cached is not None:
            etag = self._etag_for(cached)
            self.hot.put(key.digest, cached, etag)
            out = {"X-Repro-Cache": "hit", "X-Repro-Source": "store",
                   "X-Repro-Key": key.digest}
            not_modified = self._maybe_not_modified(
                endpoint.name, cached, headers, out, etag=etag)
            if not_modified is not None:
                return not_modified
            return Response(200, cached, out)

        if not endpoint.expensive:
            try:
                payload, degraded = self._compute_and_store(
                    endpoint, key, seed, params, strict=False)
            except Exception as exc:  # noqa: BLE001 - degrade, not 500
                return self._degraded_response(
                    endpoint, key, seed, "compute-failed", str(exc))
            out = {"X-Repro-Cache": "miss", "X-Repro-Source": "compute",
                   "X-Repro-Key": key.digest}
            if degraded is not None:
                out["X-Repro-Degraded"] = degraded
                if telemetry.enabled():
                    _DEGRADED.labels(endpoint=endpoint.name,
                                     reason=degraded).inc()
            etag = self._etag_for(payload)
            if degraded is None:
                # Durable in the store, so admissible to the hot tier
                # — but only through the read-back gate: the tier only
                # ever mirrors bytes the store verifiably re-serves.
                self._admit_hot(key, payload, etag)
            not_modified = self._maybe_not_modified(
                endpoint.name, payload, headers, out, etag=etag)
            if not_modified is not None:
                return not_modified
            return Response(200, payload, out)

        job, _created = self.queue.submit(
            key.digest, endpoint.name, request_path,
            lambda: self._compute_and_store(endpoint, key, seed,
                                            params, strict=True))
        if wait:
            self.queue.wait(job.job_id, timeout=MAX_WAIT_S)
            if job.state in (JobState.FAILED, JobState.CANCELLED):
                # The traceback stays in the /v1/jobs/<id> document.
                return self._degraded_response(
                    endpoint, key, seed, f"job-{job.state.value}")
            payload = self.store.get(key)
            from_store = durable = payload is not None
            if payload is None:  # evicted between job end and read
                try:
                    payload, degraded = self._compute_and_store(
                        endpoint, key, seed, params, strict=False)
                    durable = degraded is None
                except Exception as exc:  # noqa: BLE001
                    return self._degraded_response(
                        endpoint, key, seed, "recompute-failed", str(exc))
            out = {"X-Repro-Cache": "miss", "X-Repro-Source": "compute",
                   "X-Repro-Key": key.digest}
            etag = self._etag_for(payload)
            if from_store:
                # store.get already verified these bytes on disk.
                self.hot.put(key.digest, payload, etag)
            elif durable:
                self._admit_hot(key, payload, etag)
            not_modified = self._maybe_not_modified(
                endpoint.name, payload, headers, out, etag=etag)
            if not_modified is not None:
                return not_modified
            return Response(200, payload, out)
        return Response.json(
            202, {**job.to_dict(), "poll": f"/v1/jobs/{job.job_id}"},
            {"X-Repro-Cache": "miss", "X-Repro-Key": key.digest})

    # -- event log + heartbeat surface ---------------------------------
    @staticmethod
    def _int_param(query: dict[str, str], name: str, default: int,
                   lo: Optional[int] = None,
                   hi: Optional[int] = None) -> int:
        raw = query.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise BadRequest(f"parameter {name!r} must be int, "
                             f"got {raw!r}") from None
        if lo is not None:
            value = max(lo, value)
        if hi is not None:
            value = min(hi, value)
        return value

    def _no_events(self) -> Response:
        return Response.error(
            404, "event log not configured; start serve with "
                 "--events-dir")

    def _events_page(self, query: dict[str, str]) -> Response:
        log = self._events()
        if log is None:
            return self._no_events()
        after = self._int_param(query, "after", -1, lo=-1)
        limit = self._int_param(query, "limit", EVENTS_PAGE, lo=1,
                                hi=EVENTS_PAGE_MAX)
        etypes = None
        etype_param = query.get("etype")
        if etype_param:
            parsed = []
            for name in etype_param.split(","):
                name = name.strip()
                if not name:
                    continue
                etype = event_type_from_name(name)
                if etype is None:
                    raise BadRequest(f"unknown etype {name!r}")
                parsed.append(etype)
            etypes = tuple(parsed) or None
        scope = query.get("scope") or None
        with self._events_lock:
            log.refresh()
            events = log.read(after=after, limit=limit, etypes=etypes,
                              scope=scope)
            head = log.head_seq
        cursor = events[-1].seq if events else after
        return Response.json(
            200, {"events": [e.to_dict() for e in events],
                  "count": len(events), "after": after,
                  "cursor": cursor, "head_seq": head},
            {"X-Repro-Cache": "live"})

    def _heartbeat_status(self) -> Response:
        log = self._events()
        if log is None:
            return self._no_events()
        with self._events_lock:
            log.refresh()
            analyzer = self._analyzer(log)
            analyzer.catch_up()
            doc = analyzer.status_doc()
        return Response.json(200, json_safe(doc),
                             {"X-Repro-Cache": "live"})

    def _heartbeat_stream(self, query: dict[str, str]) -> Response:
        """Long-poll: block until events past ``cursor`` (or timeout).

        With no ``cursor`` the current head is used, so the first call
        establishes a position and a subsequent call blocks for new
        activity — the pager-style consumption loop documented in
        ``docs/eventlog.md``.
        """
        log = self._events()
        if log is None:
            return self._no_events()
        with self._events_lock:
            log.refresh()
            head = log.head_seq
        cursor = self._int_param(query, "cursor", head, lo=-1)
        limit = self._int_param(query, "limit", EVENTS_PAGE, lo=1,
                                hi=EVENTS_PAGE_MAX)
        raw_timeout = query.get("timeout")
        try:
            timeout = float(raw_timeout) if raw_timeout \
                else STREAM_WAIT_S
        except ValueError:
            raise BadRequest(f"parameter 'timeout' must be a number, "
                             f"got {raw_timeout!r}") from None
        timeout = min(timeout, STREAM_WAIT_MAX_S)
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            with self._events_lock:
                log.refresh()
                head = log.head_seq
                if head > cursor:
                    events = log.read(after=cursor, limit=limit)
                    break
            if time.monotonic() >= deadline:
                events = []
                break
            time.sleep(0.05)
        new_cursor = events[-1].seq if events else cursor
        return Response.json(
            200, {"events": [e.to_dict() for e in events],
                  "count": len(events), "cursor": new_cursor,
                  "head_seq": head, "timed_out": not events},
            {"X-Repro-Cache": "live"})

    def _job_status(self, job_id: str) -> Response:
        job = self.queue.get(job_id)
        if job is None:
            return Response.error(404, f"unknown job {job_id!r}")
        doc = job.to_dict()
        status = 200 if job.settled else 202
        return Response.json(status, doc)

    def cancel_job(self, job_id: str) -> Response:
        """Cancel a queued/running job (``DELETE /v1/jobs/<id>``)."""
        job = self.queue.get(job_id)
        if job is None:
            return Response.error(404, f"unknown job {job_id!r}")
        cancelled = self.queue.cancel(job_id)
        return Response.json(200, {**job.to_dict(),
                                   "cancel_accepted": cancelled})

    def _compute_and_store(self, endpoint, key, seed: int,
                           params: dict[str, Any], strict: bool
                           ) -> tuple[bytes, Optional[str]]:
        """Compute the canonical payload and make it durable.

        Returns ``(payload, degraded_reason)``.  A store write failure
        either propagates (``strict`` — job path, so the bounded job
        retry gets another shot at durability) or downgrades to
        serving the freshly computed bytes uncached.
        """
        with telemetry.span("service.compute", endpoint=endpoint.name,
                            seed=seed):
            payload = canonical_bytes(endpoint.payload(seed, params))
        try:
            self.store.put(key, payload)
        except OSError:
            if strict:
                raise
            return payload, "store-write-failed"
        return payload, None

    def _degraded_response(self, endpoint, key, seed: int, reason: str,
                           detail: Optional[str] = None) -> Response:
        """Recompute failed: serve stale bytes if any exist, else 503.

        Degraded responses always carry ``X-Repro-Degraded`` — the
        chaos smoke's invariant is "no 5xx without that header", and a
        stale 200 additionally names the substitute artifact in
        ``X-Repro-Stale-Key``.  ``reason`` is a one-line token
        (``compute-failed``, ``job-failed``, ...): error text such as
        a traceback would break the header block, so it goes only into
        a 503's JSON body as ``detail``.
        """
        stale = self._stale_entry(endpoint, seed)
        mode = "stale" if stale is not None else "unavailable"
        if telemetry.enabled():
            _DEGRADED.labels(endpoint=endpoint.name, reason=mode).inc()
        if stale is not None:
            digest, payload = stale
            # Served under a *different* key than requested, so the
            # bytes must never populate the hot tier for this key.
            return Response(200, payload,
                            {"X-Repro-Cache": "stale",
                             "X-Repro-Source": "stale",
                             "X-Repro-Key": key.digest,
                             "X-Repro-Stale-Key": digest,
                             "X-Repro-Degraded": reason})
        body = {"error": reason, "status": 503, "endpoint": endpoint.name}
        if detail is not None:
            body["detail"] = detail
        return Response(503, canonical_bytes(body),
            {"X-Repro-Degraded": reason, "Retry-After": "1"})

    def _stale_entry(self, endpoint, seed: int
                     ) -> Optional[tuple[str, bytes]]:
        """Most recent stored artifact for this endpoint, if any.

        Prefers entries computed for the same seed; falls back to any
        seed.  Returns ``(key_digest, payload)`` or ``None``.
        """
        kind = f"api.{endpoint.name}"
        candidates = [e for e in self.store.entries() if e.kind == kind]
        candidates.sort(key=lambda e: (e.seed != seed, -e.last_used))
        for entry in candidates:
            payload = self.store.get_by_digest(entry.key_digest)
            if payload is not None:
                return entry.key_digest, payload
        return None

    @staticmethod
    def _canonical_path(endpoint, seed: int,
                        params: dict[str, Any]) -> str:
        parts = [f"seed={seed}"]
        parts += [f"{k}={params[k]}" for k in sorted(params)]
        return f"/v1/{endpoint.name}?" + "&".join(parts)


def access_log_entry(method: str, path: str, started: float,
                     response: Response) -> dict[str, Any]:
    """One structured access-log record (shared by both transports).

    ``served`` is where the bytes came from — ``hot``/``store``/
    ``compute`` via ``X-Repro-Source``, falling back to the cache
    disposition (``stale``/``live``/``miss``) — so cache behavior is
    debuggable per request, not just in aggregate.
    """
    return {
        "method": method,
        "path": path,
        "status": response.status,
        "latency_ms": round(
            (time.perf_counter() - started) * 1000.0, 3),
        "cache": response.headers.get("X-Repro-Cache"),
        "served": response.headers.get(
            "X-Repro-Source", response.headers.get("X-Repro-Cache")),
        "degraded": "X-Repro-Degraded" in response.headers,
        "bytes": len(response.body),
    }


def write_access_log(access_log: Optional[TextIO],
                     entry: dict[str, Any]) -> None:
    if access_log is None:
        return
    try:
        access_log.write(json.dumps(entry, sort_keys=True) + "\n")
        access_log.flush()
    except (OSError, ValueError):
        pass  # a dead log stream must never kill a request


def make_handler(service: ObservatoryService,
                 access_log: Optional[TextIO] = None):
    """A ``BaseHTTPRequestHandler`` subclass bound to ``service``.

    Every method funnels through :meth:`ObservatoryService.dispatch`,
    so the threaded transport carries zero routing logic of its own.
    With ``access_log`` set, every request emits one JSON line to that
    stream: method, path, status, wall-clock latency, the response's
    cache disposition, where the bytes were served from and whether it
    was degraded — the access-level counterpart of ``/metrics``.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-observatory"

        def _dispatch(self, method: str) -> None:
            started = time.perf_counter()
            try:  # drain any body so keep-alive framing stays intact
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = 0
            if length > 0:
                self.rfile.read(length)
            response = service.dispatch(method, self.path,
                                        headers=dict(self.headers))
            self._send(response)
            write_access_log(access_log, access_log_entry(
                method, self.path, started, response))

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("GET")

        def do_HEAD(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("HEAD")

        def do_DELETE(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("DELETE")

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("POST")

        do_PUT = do_PATCH = do_OPTIONS = do_POST

        def _send(self, response: Response) -> None:
            self.send_response(response.status)
            for name, value in response.headers.items():
                self.send_header(name, value)
            if "Content-Length" not in response.headers:
                self.send_header("Content-Length",
                                 str(len(response.body)))
            # Make connection reuse explicit and symmetric with the
            # asyncio transport: advertise exactly what will happen.
            self.send_header(
                "Connection",
                "close" if self.close_connection else "keep-alive")
            self.end_headers()
            self.wfile.write(response.body)

        def log_message(self, format: str, *args) -> None:
            pass  # quiet by default; telemetry carries the signal

    return Handler


def create_service(store: Optional[ArtifactStore] = None,
                   job_workers: int = 2,
                   default_seed: int = 2025,
                   job_deadline_s: Optional[float] = None,
                   job_retries: int = 1,
                   events_dir: Optional[str] = None,
                   coordinator=None,
                   hot_cache_bytes: Optional[int] = None
                   ) -> ObservatoryService:
    """The transport-agnostic service core, fully wired.

    Both ``create_server`` (threaded) and
    :func:`repro.service.aserver.create_async_server` build on this,
    so the store, hot tier, job queue and event-log surface are
    configured identically regardless of transport.
    """
    return ObservatoryService(
        store=store if store is not None else ArtifactStore(),
        queue=JobQueue(workers=job_workers,
                       default_deadline_s=job_deadline_s,
                       default_max_retries=job_retries),
        default_seed=default_seed,
        events_dir=events_dir,
        coordinator=coordinator,
        hot_cache_bytes=hot_cache_bytes)


def create_server(host: str = "127.0.0.1", port: int = 0,
                  store: Optional[ArtifactStore] = None,
                  job_workers: int = 2,
                  default_seed: int = 2025,
                  job_deadline_s: Optional[float] = None,
                  job_retries: int = 1,
                  events_dir: Optional[str] = None,
                  access_log: Optional[TextIO] = None,
                  coordinator=None,
                  hot_cache_bytes: Optional[int] = None
                  ) -> tuple[ThreadingHTTPServer, ObservatoryService]:
    """A bound (not yet serving) HTTP server plus its service core."""
    service = create_service(
        store=store, job_workers=job_workers,
        default_seed=default_seed, job_deadline_s=job_deadline_s,
        job_retries=job_retries, events_dir=events_dir,
        coordinator=coordinator, hot_cache_bytes=hot_cache_bytes)
    httpd = ThreadingHTTPServer((host, port),
                                make_handler(service, access_log))
    httpd.daemon_threads = True
    return httpd, service


def job_payload_for(service: ObservatoryService, job_id: str
                    ) -> Optional[bytes]:
    """Stored payload for a finished job (helper for clients/tests)."""
    job = service.queue.get(job_id)
    if job is None or job.state is not JobState.DONE:
        return None
    response = service.handle(job.request_path)
    return response.body if response.status == 200 else None
