"""repro.service: HTTP API, job queue, and cache determinism.

The server under test runs in-process on an ephemeral port with a
fresh store per test module, so these are real socket round-trips.
The ``server`` fixture is parametrized over *both* HTTP transports —
threaded ``ThreadingHTTPServer`` and the asyncio server — so every
test in this file proves the two stay behaviorally identical behind
the shared :meth:`ObservatoryService.dispatch` handler core.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    AsyncServerThread,
    JobState,
    create_server,
    create_service,
)
from repro.service.endpoints import ENDPOINTS, BadRequest
from repro.service.jobs import JobQueue
from repro.store import ArtifactStore, canonical_bytes

#: Cheap worlds for HTTP tests: seed shared with the session fixtures
#: so the world LRU in repro.service.endpoints stays warm.
SEED = 2025


@pytest.fixture(scope="module", params=["threaded", "async"])
def server(request, tmp_path_factory):
    store = ArtifactStore(root=tmp_path_factory.mktemp("store"),
                          max_bytes=32 * 1024 * 1024)
    if request.param == "threaded":
        httpd, service = create_server(port=0, store=store,
                                       job_workers=2,
                                       default_seed=SEED)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        port = httpd.server_address[1]
        yield f"http://127.0.0.1:{port}", service
        httpd.shutdown()
        httpd.server_close()
        service.queue.shutdown()
    else:
        service = create_service(store=store, job_workers=2,
                                 default_seed=SEED)
        runner = AsyncServerThread(service)
        host, port = runner.start()
        yield f"http://{host}:{port}", service
        runner.stop()
        service.queue.shutdown()


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=120) as resp:
        return resp.status, dict(resp.headers), resp.read()


# ----------------------------------------------------------------------
class TestPlumbing:
    def test_healthz(self, server):
        base, _ = server
        status, _, body = _get(base, "/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True}

    def test_endpoint_discovery(self, server):
        base, _ = server
        _, _, body = _get(base, "/v1/endpoints")
        listed = {e["name"] for e in json.loads(body)["endpoints"]}
        assert listed == set(ENDPOINTS)

    def test_unknown_route_404(self, server):
        base, _ = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/nope")
        assert err.value.code == 404

    def test_unknown_endpoint_404(self, server):
        base, _ = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/v1/frobnicate")
        assert err.value.code == 404

    def test_bad_parameter_400(self, server):
        base, _ = server
        for path in ("/v1/outages?years=abc",
                     "/v1/summary?seed=xyz",
                     "/v1/whatif?scenario=north",
                     "/v1/summary?bogus=1"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base, path)
            assert err.value.code == 400, path

    def test_metrics_exposed(self, server):
        import repro.telemetry as telemetry
        base, _ = server
        enabled_before = telemetry.enabled()
        telemetry.enable()
        try:
            _get(base, "/healthz")
            _, headers, body = _get(base, "/metrics")
            assert headers["Content-Type"].startswith("text/plain")
            text = body.decode()
            assert "repro_service_requests_total" in text
            assert "repro_service_request_seconds" in text
        finally:
            if not enabled_before:
                telemetry.disable()

    def test_store_stats_route(self, server):
        base, service = server
        _, _, body = _get(base, "/v1/store/stats")
        stats = json.loads(body)
        assert stats["root"] == str(service.store.root)
        assert stats["max_bytes"] == 32 * 1024 * 1024


# ----------------------------------------------------------------------
class TestSyncEndpoints:
    def test_cold_then_warm_identical_bytes(self, server):
        base, _ = server
        s1, h1, cold = _get(base, f"/v1/summary?seed={SEED}")
        s2, h2, warm = _get(base, f"/v1/summary?seed={SEED}")
        assert (s1, s2) == (200, 200)
        assert h1["X-Repro-Cache"] == "miss"
        assert h2["X-Repro-Cache"] == "hit"
        assert cold == warm
        assert h1["X-Repro-Key"] == h2["X-Repro-Key"]

    def test_payload_shape(self, server):
        base, _ = server
        _, _, body = _get(base, f"/v1/summary?seed={SEED}")
        doc = json.loads(body)
        assert doc["endpoint"] == "summary"
        assert doc["seed"] == SEED
        assert doc["result"]["summary"]["ases_total"] > 0

    def test_default_seed_applies(self, server):
        base, _ = server
        _, _, explicit = _get(base, f"/v1/summary?seed={SEED}")
        _, _, implicit = _get(base, "/v1/summary")
        assert explicit == implicit

    def test_distinct_params_distinct_artifacts(self, server):
        base, _ = server
        _, h1, _ = _get(base, f"/v1/placement?seed={SEED}&budget=3")
        _, h2, _ = _get(base, f"/v1/placement?seed={SEED}&budget=4")
        assert h1["X-Repro-Key"] != h2["X-Repro-Key"]


# ----------------------------------------------------------------------
class TestAsyncJobs:
    def test_expensive_miss_becomes_job_then_hit(self, server):
        base, service = server
        path = f"/v1/outages?seed={SEED}&years=0.25"
        status, headers, body = _get(base, path)
        assert status == 202
        doc = json.loads(body)
        assert doc["state"] in ("queued", "running", "done")
        job_id = doc["job_id"]
        assert headers["X-Repro-Key"] == job_id

        deadline = time.time() + 120
        while time.time() < deadline:
            status, _, body = _get(base, f"/v1/jobs/{job_id}")
            doc = json.loads(body)
            if doc["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert doc["state"] == "done", doc
        assert status == 200

        # The canonical result URL recorded on the job now hits.
        status, headers, _ = _get(base, doc["result"])
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        # And so does the original request path.
        status, headers, _ = _get(base, path)
        assert headers["X-Repro-Cache"] == "hit"

    def test_wait_param_blocks_and_matches_warm(self, server):
        base, _ = server
        path = f"/v1/whatif?seed={SEED}&scenario=east"
        s1, h1, cold = _get(base, path + "&wait=1")
        s2, h2, warm = _get(base, path)
        assert (s1, s2) == (200, 200)
        assert h1["X-Repro-Cache"] == "miss"
        assert h2["X-Repro-Cache"] == "hit"
        assert cold == warm

    def test_identical_requests_share_one_job(self, server):
        base, service = server
        path = f"/v1/detours?seed={SEED}&pairs=40"
        _, _, b1 = _get(base, path)
        _, _, b2 = _get(base, path)
        ids = {json.loads(b)["job_id"] for b in (b1, b2)
               if json.loads(b).get("job_id")}
        # Either both saw the same job, or the first finished so fast
        # the second was already a cache hit (no job id at all).
        assert len(ids) <= 1
        job_id = json.loads(b1)["job_id"]
        service.queue.wait(job_id, timeout=120)

    def test_unknown_job_404(self, server):
        base, _ = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/v1/jobs/deadbeef")
        assert err.value.code == 404


# ----------------------------------------------------------------------
class TestJobQueueUnit:
    def test_dedup_and_lifecycle(self):
        queue = JobQueue(workers=1)
        try:
            ran = []
            gate = threading.Event()

            def work() -> None:
                gate.wait(timeout=10)
                ran.append(1)

            j1, created1 = queue.submit("job-1", "t", "/v1/t", work)
            j2, created2 = queue.submit("job-1", "t", "/v1/t", work)
            assert created1 and not created2
            assert j1 is j2
            gate.set()
            assert queue.wait("job-1", timeout=10).state is JobState.DONE
            assert ran == [1]
        finally:
            queue.shutdown()

    def test_failed_job_records_error_and_is_retryable(self):
        queue = JobQueue(workers=1)
        try:
            def boom() -> None:
                raise RuntimeError("expected failure")

            job, _ = queue.submit("job-f", "t", "/v1/t", boom)
            queue.wait("job-f", timeout=10)
            assert job.state is JobState.FAILED
            assert "expected failure" in job.error
            retry, created = queue.submit("job-f", "t", "/v1/t",
                                          lambda: None)
            assert created and retry is not job
            queue.wait("job-f", timeout=10)
            assert retry.state is JobState.DONE
        finally:
            queue.shutdown()


# ----------------------------------------------------------------------
class TestDeterminism:
    def test_cold_recompute_after_eviction_is_byte_identical(self,
                                                             server):
        """The core serving contract: identical (seed, params) →
        identical bytes, with or without the cache."""
        base, service = server
        path = f"/v1/coverage?seed={SEED}&wait=1"
        _, _, first = _get(base, path)
        # Drop every artifact, forcing a recompute from scratch.
        service.store.clear()
        _, h, second = _get(base, path)
        assert h["X-Repro-Cache"] == "miss"
        assert first == second

    def test_parse_params_rejects_unknown(self):
        with pytest.raises(BadRequest):
            ENDPOINTS["summary"].parse_params({"nope": "1"})

    def test_concurrent_cold_requests_get_their_own_bytes(self,
                                                           tmp_path):
        """Two job threads computing different worlds at once: each
        response equals the serial oracle for its own seed (detours
        fans its traceroutes out through ``map_tasks``)."""
        service = create_service(store=ArtifactStore(root=tmp_path),
                                 job_workers=2, default_seed=SEED)
        seeds = (SEED, 11)
        start = threading.Barrier(len(seeds))
        bodies: dict[int, bytes] = {}

        def request(seed: int) -> None:
            start.wait(timeout=30)
            bodies[seed] = service.handle(
                f"/v1/detours?seed={seed}&wait=1").body

        threads = [threading.Thread(target=request, args=(seed,))
                   for seed in seeds]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            service.queue.shutdown()
        endpoint = ENDPOINTS["detours"]
        for seed in seeds:
            params = endpoint.parse_params({})
            assert bodies[seed] == canonical_bytes(
                endpoint.payload(seed, params))


# ----------------------------------------------------------------------
def _get_with_headers(base: str, path: str, headers: dict[str, str]):
    """GET that treats 304 as a result, not an exception."""
    req = urllib.request.Request(base + path, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        if err.code == 304:
            return err.code, dict(err.headers), err.read()
        raise


class TestConditionalRequests:
    def test_cached_get_carries_etag(self, server):
        base, _ = server
        _, headers, body = _get(base, f"/v1/summary?seed={SEED}")
        etag = headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')
        # Same payload on every subsequent request => same ETag.
        _, again, _ = _get(base, f"/v1/summary?seed={SEED}")
        assert again["ETag"] == etag

    def test_if_none_match_hit_returns_304_empty_body(self, server):
        base, _ = server
        _, headers, body = _get(base, f"/v1/summary?seed={SEED}")
        etag = headers["ETag"]
        status, h304, body304 = _get_with_headers(
            base, f"/v1/summary?seed={SEED}", {"If-None-Match": etag})
        assert status == 304
        assert body304 == b""
        assert h304["ETag"] == etag
        assert len(body) > 0

    def test_stale_etag_returns_full_payload(self, server):
        base, _ = server
        _, _, body = _get(base, f"/v1/summary?seed={SEED}")
        status, headers, got = _get_with_headers(
            base, f"/v1/summary?seed={SEED}",
            {"If-None-Match": '"deadbeef"'})
        assert status == 200
        assert got == body

    def test_wildcard_weak_and_list_forms_match(self, server):
        base, _ = server
        _, headers, _ = _get(base, f"/v1/summary?seed={SEED}")
        etag = headers["ETag"]
        for value in ("*", f"W/{etag}", f'"nope", {etag}'):
            status, _, _ = _get_with_headers(
                base, f"/v1/summary?seed={SEED}",
                {"If-None-Match": value})
            assert status == 304, value

    def test_not_modified_counter(self, server):
        import repro.telemetry as telemetry
        base, _ = server
        enabled_before = telemetry.enabled()
        telemetry.enable()
        try:
            _, headers, _ = _get(base, f"/v1/summary?seed={SEED}")
            _get_with_headers(base, f"/v1/summary?seed={SEED}",
                              {"If-None-Match": headers["ETag"]})
            _, _, metrics = _get(base, "/metrics")
            assert "repro_service_not_modified_total" in metrics.decode()
        finally:
            if not enabled_before:
                telemetry.disable()


# ----------------------------------------------------------------------
def _request(base: str, path: str, method: str,
             headers: dict[str, str] | None = None):
    """Any-method request; non-2xx statuses return, never raise."""
    req = urllib.request.Request(base + path, headers=headers or {},
                                 method=method)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


class TestMethodSemantics:
    def test_head_matches_get_headers_no_body(self, server):
        base, _ = server
        path = f"/v1/summary?seed={SEED}"
        _, get_headers, body = _get(base, path)
        status, head_headers, head_body = _request(base, path, "HEAD")
        assert status == 200
        assert head_body == b""
        assert head_headers["ETag"] == get_headers["ETag"]
        assert head_headers["X-Repro-Cache"] == "hit"
        assert head_headers["X-Repro-Key"] == get_headers["X-Repro-Key"]
        # Content-Length advertises the entity, not the empty body.
        assert int(head_headers["Content-Length"]) == len(body)

    def test_head_on_plumbing_routes(self, server):
        base, _ = server
        for path in ("/healthz", "/metrics", "/v1/endpoints",
                     "/v1/store/stats", "/v1/jobs"):
            _, get_headers, body = _get(base, path)
            status, headers, head_body = _request(base, path, "HEAD")
            assert status == 200, path
            assert head_body == b"", path
            assert int(headers["Content-Length"]) > 0, path
            assert headers["Content-Type"] \
                == get_headers["Content-Type"], path

    def test_unsupported_methods_405_with_allow(self, server):
        base, _ = server
        for method in ("POST", "PUT", "PATCH"):
            status, headers, body = _request(
                base, f"/v1/summary?seed={SEED}", method)
            assert status == 405, method
            assert headers["Allow"] == "GET, HEAD", method
            assert json.loads(body)["status"] == 405
        # The jobs resource additionally allows DELETE (cancel).
        status, headers, _ = _request(base, "/v1/jobs/deadbeef", "POST")
        assert status == 405
        assert headers["Allow"] == "DELETE, GET, HEAD"

    def test_delete_outside_jobs_405_with_allow(self, server):
        base, _ = server
        status, headers, _ = _request(base, "/v1/summary", "DELETE")
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"

    def test_delete_cancels_job_still_works(self, server):
        base, _ = server
        # An unknown job id is a 404 (route exists, resource doesn't).
        status, _, _ = _request(base, "/v1/jobs/feedface", "DELETE")
        assert status == 404

    def test_jobs_index_lists_queue(self, server):
        base, _ = server
        status, headers, body = _get(base, "/v1/jobs")
        assert status == 200
        assert headers["X-Repro-Cache"] == "live"
        doc = json.loads(body)
        assert set(doc) >= {"jobs", "counts", "workers_alive"}
        assert doc["workers_alive"] >= 1

    def test_connection_header_explicit(self, server):
        base, _ = server
        _, headers, _ = _get(base, "/healthz")
        # urllib sends "Connection: close", and both transports must
        # honor and echo it rather than silently keeping the socket.
        assert headers["Connection"] == "close"


# ----------------------------------------------------------------------
class TestHotTierComposition:
    """The in-memory hot tier composes with every serving feature."""

    @pytest.fixture()
    def hot_server(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store",
                              max_bytes=32 * 1024 * 1024)
        httpd, service = create_server(port=0, store=store,
                                       job_workers=1,
                                       default_seed=SEED)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{httpd.server_address[1]}", service
        httpd.shutdown()
        httpd.server_close()
        service.queue.shutdown()

    def test_hot_store_and_cold_serve_identical_bytes(self, hot_server):
        base, service = hot_server
        path = f"/v1/summary?seed={SEED}"
        _, h_cold, cold = _get(base, path)            # compute
        _, h_hot, hot = _get(base, path)              # hot tier
        service.hot.clear()
        _, h_store, store_read = _get(base, path)     # disk store
        assert h_cold["X-Repro-Source"] == "compute"
        assert h_hot["X-Repro-Source"] == "hot"
        assert h_store["X-Repro-Source"] == "store"
        assert cold == hot == store_read
        assert h_cold["ETag"] == h_hot["ETag"] == h_store["ETag"]

    def test_304_served_from_hot_tier(self, hot_server):
        base, service = hot_server
        path = f"/v1/summary?seed={SEED}"
        _, headers, _ = _get(base, path)
        status, h304, body = _request(base, path, "GET",
                                      {"If-None-Match": headers["ETag"]})
        assert status == 304
        assert body == b""
        assert h304["X-Repro-Source"] == "hot"
        assert h304["ETag"] == headers["ETag"]

    def test_store_clear_invalidates_hot_tier(self, hot_server):
        base, service = hot_server
        path = f"/v1/summary?seed={SEED}"
        _, _, first = _get(base, path)
        assert len(service.hot) == 1
        service.store.clear()
        assert len(service.hot) == 0          # invalidation hook fired
        _, headers, second = _get(base, path)
        assert headers["X-Repro-Cache"] == "miss"
        assert first == second                # recompute, same bytes

    def test_store_gc_invalidates_hot_tier(self, hot_server):
        base, service = hot_server
        _, _, _ = _get(base, f"/v1/summary?seed={SEED}")
        assert len(service.hot) == 1
        service.store.gc(max_bytes=0)
        assert len(service.hot) == 0

    def test_lru_eviction_under_tiny_cap(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store")
        service = create_service(store=store, job_workers=1,
                                 default_seed=SEED)
        try:
            first = service.handle(f"/v1/summary?seed={SEED}")
            second = service.handle(
                f"/v1/placement?seed={SEED}&budget=2")
            assert len(service.hot) == 2
            # Shrink the budget below the resident set: the next
            # admit evicts from the LRU end until it fits.
            service.hot.max_bytes = \
                len(first.body) + len(second.body) - 1
            service.handle(f"/v1/placement?seed={SEED}&budget=3")
            assert service.hot.evictions >= 1
            assert service.hot.total_bytes() <= service.hot.max_bytes
            # Evicted keys re-serve from the store, byte-identical.
            again = service.handle(f"/v1/summary?seed={SEED}")
            assert again.headers["X-Repro-Source"] == "store"
            assert again.body == first.body
        finally:
            service.queue.shutdown()

    def test_degraded_compute_never_populates_hot(self, tmp_path):
        from repro import faults

        store = ArtifactStore(root=tmp_path / "store")
        service = create_service(store=store, job_workers=1,
                                 default_seed=SEED)
        try:
            faults.configure("seed=3,store.write_error=1x1")
            response = service.handle(f"/v1/summary?seed={SEED}")
            assert response.status == 200
            assert response.headers["X-Repro-Degraded"] \
                == "store-write-failed"
            assert len(service.hot) == 0   # nothing durable => not hot
        finally:
            faults.configure(None)
            service.queue.shutdown()

    def test_corrupt_write_never_populates_hot(self, tmp_path):
        # The admit path reads the bytes back from disk before the
        # tier takes them: a silently corrupted write must leave the
        # key cold so the next request discovers the damage instead
        # of serving good memory over a rotten durable copy.
        from repro import faults

        store = ArtifactStore(root=tmp_path / "store")
        service = create_service(store=store, job_workers=1,
                                 default_seed=SEED)
        try:
            faults.configure("seed=2,store.corrupt=1x1")
            first = service.handle(f"/v1/summary?seed={SEED}")
            assert first.status == 200
            assert len(service.hot) == 0   # read-back caught it
            faults.configure(None)
            second = service.handle(f"/v1/summary?seed={SEED}")
            assert second.headers["X-Repro-Cache"] == "miss"
            assert second.body == first.body
            assert len(service.hot) == 1   # clean write admits
        finally:
            faults.configure(None)
            service.queue.shutdown()

    def test_stale_serving_bypasses_hot_tier(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store")
        service = create_service(store=store, job_workers=1,
                                 default_seed=SEED)
        try:
            endpoint = ENDPOINTS["summary"]
            # A durable artifact exists for another seed only.
            service.handle(f"/v1/summary?seed={SEED}")
            service.hot.clear()
            key = endpoint.key(SEED + 1, {})
            response = service._degraded_response(
                endpoint, key, SEED + 1, "injected failure")
            assert response.status == 200
            assert response.headers["X-Repro-Source"] == "stale"
            assert response.headers["X-Repro-Degraded"]
            # The stale bytes answer a *different* key — they must
            # not be admitted under the requested one.
            assert len(service.hot) == 0
        finally:
            service.queue.shutdown()

    def test_disabled_hot_tier_serves_from_store(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store")
        service = create_service(store=store, job_workers=1,
                                 default_seed=SEED, hot_cache_bytes=0)
        try:
            cold = service.handle(f"/v1/summary?seed={SEED}")
            warm = service.handle(f"/v1/summary?seed={SEED}")
            assert warm.headers["X-Repro-Source"] == "store"
            assert warm.body == cold.body
            assert len(service.hot) == 0
        finally:
            service.queue.shutdown()


# ----------------------------------------------------------------------
class TestDispatchFast:
    """The asyncio transport's event-loop fast path.

    ``dispatch_fast`` may only answer what ``dispatch`` would have
    answered byte-for-byte, and must decline (return ``None``)
    everything else — misses, plumbing routes, writes, bad input."""

    @pytest.fixture()
    def service(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store")
        service = create_service(store=store, job_workers=1,
                                 default_seed=SEED)
        yield service
        service.queue.shutdown()

    def test_hot_hit_identical_to_dispatch(self, service):
        path = f"/v1/summary?seed={SEED}"
        service.handle(path)                       # make the key hot
        fast = service.dispatch_fast("GET", path)
        slow = service.dispatch("GET", path)
        assert fast is not None
        assert (fast.status, fast.body, fast.headers) \
            == (slow.status, slow.body, slow.headers)

    def test_head_hot_hit_identical_to_dispatch(self, service):
        path = f"/v1/summary?seed={SEED}"
        service.handle(path)
        fast = service.dispatch_fast("HEAD", path)
        slow = service.dispatch("HEAD", path)
        assert fast is not None
        assert fast.body == b""
        assert (fast.status, fast.headers) \
            == (slow.status, slow.headers)

    def test_304_identical_to_dispatch(self, service):
        path = f"/v1/summary?seed={SEED}"
        etag = service.handle(path).headers["ETag"]
        headers = {"If-None-Match": etag}
        fast = service.dispatch_fast("GET", path, headers)
        slow = service.dispatch("GET", path, headers)
        assert fast is not None and fast.status == 304
        assert (fast.status, fast.body, fast.headers) \
            == (slow.status, slow.body, slow.headers)

    def test_declines_everything_it_must(self, service):
        path = f"/v1/summary?seed={SEED}"
        assert service.dispatch_fast("GET", path) is None  # cold
        service.handle(path)
        declined = [
            ("POST", path),                     # write method
            ("DELETE", path),                   # write method
            ("GET", "/healthz"),                # plumbing route
            ("GET", "/v1/jobs"),                # live route
            ("GET", "/v1/nope?seed=1"),         # unknown endpoint
            ("GET", f"/v1/summary?seed={SEED}&bogus=1"),   # 400s
            ("GET", f"/v1/summary?seed={SEED}&wait=1"),    # may block
            ("GET", f"/v1/summary?seed={SEED + 7}"),       # cold key
        ]
        for method, target in declined:
            assert service.dispatch_fast(method, target) is None, \
                (method, target)

    def test_declines_when_tier_disabled(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store")
        service = create_service(store=store, job_workers=1,
                                 default_seed=SEED, hot_cache_bytes=0)
        try:
            path = f"/v1/summary?seed={SEED}"
            service.handle(path)
            assert service.dispatch_fast("GET", path) is None
        finally:
            service.queue.shutdown()

    def test_probe_miss_not_double_counted(self, service):
        path = f"/v1/summary?seed={SEED}"
        before = service.hot.misses
        assert service.dispatch_fast("GET", path) is None  # probe
        assert service.hot.misses == before  # slow path owns the count


# ----------------------------------------------------------------------
class TestSnapshotEndpoint:
    """/v1/snapshot publishes raw records without ground truth."""

    def test_payload_shape_and_no_ground_truth_leak(self):
        endpoint = ENDPOINTS["snapshot"]
        doc = endpoint.payload(SEED, endpoint.parse_params(
            {"pairs": "20"}))
        result = doc["result"]
        assert result["pairs"] == len(result["traceroutes"]) > 0
        record = result["traceroutes"][0]
        assert {"probe_id", "src_asn", "src_country", "dst_probe_id",
                "dst_asn", "target_ip", "reached", "bytes_used",
                "hops"} <= set(record)
        for tr in result["traceroutes"]:
            for hop in tr["hops"]:
                # Wire-visible fields only: the simulator's hidden
                # per-hop AS/country labels must never be published.
                assert set(hop) == {"ttl", "ip", "rtt_ms"}

    def test_deterministic_in_seed_and_params(self):
        endpoint = ENDPOINTS["snapshot"]
        params = endpoint.parse_params({"pairs": "20"})
        a = canonical_bytes(endpoint.payload(SEED, params))
        b = canonical_bytes(endpoint.payload(SEED, params))
        assert a == b

    def test_listed_and_served(self, server):
        base, _ = server
        _, _, body = _get(base, "/v1/endpoints")
        names = [e["name"] for e in json.loads(body)["endpoints"]]
        assert "snapshot" in names
        status, headers, body = _get(
            base, f"/v1/snapshot?seed={SEED}&pairs=20&wait=1")
        assert status == 200
        doc = json.loads(body)
        assert doc["result"]["pairs"] == len(
            doc["result"]["traceroutes"])


# ----------------------------------------------------------------------
class TestFleetRoutes:
    def test_404_when_no_coordinator_attached(self, server):
        base, _ = server
        for path in ("/v1/fleet/agents", "/v1/fleet/campaigns"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base, path)
            assert err.value.code == 404
            assert b"coordinator" in err.value.read()

    def test_live_status_with_coordinator(self, tmp_path):
        from repro.fleet import CampaignSpec, FleetCoordinator

        coordinator = FleetCoordinator()
        coordinator.register("probe-1")
        cid = coordinator.submit_campaign(
            CampaignSpec(scale=0.05, rounds=1, shards=2,
                         probes_per_shard=1, targets_per_probe=1))
        httpd, service = create_server(
            port=0, store=ArtifactStore(root=tmp_path / "store"),
            job_workers=1, coordinator=coordinator)
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            _, headers, body = _get(base, "/v1/fleet/agents")
            doc = json.loads(body)
            assert headers["X-Repro-Cache"] == "live"
            assert [a["agent_id"] for a in doc["agents"]] == ["probe-1"]
            assert doc["draining"] is False

            _, _, body = _get(base, "/v1/fleet/campaigns")
            doc = json.loads(body)
            assert [c["campaign_id"] for c in doc["campaigns"]] == [cid]
            assert doc["campaigns"][0]["done"] is False
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.queue.shutdown()


# ----------------------------------------------------------------------
#: One header line: a field-name token, ": ", then no CR or LF.
_HEADER_LINE = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+: [^\r\n]*")


def _raw_get(base: str, path: str) -> tuple[list[bytes], bytes]:
    """GET over a bare socket: the head's lines (split on CRLF only, so
    a bare LF inside a header stays visible) and the body."""
    host, port = base.removeprefix("http://").rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=120) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Connection: close\r\n\r\n".encode())
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            assert chunk, "connection closed inside the head"
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        length = next(int(line.split(b":", 1)[1]) for line in lines
                      if line.lower().startswith(b"content-length:"))
        while len(body) < length:
            chunk = sock.recv(65536)
            assert chunk, "connection closed inside the body"
            body += chunk
    return lines, body


class TestDegradedHeader:
    """A failed job's reason reaches ``X-Repro-Degraded`` as a one-line
    token, on both transports; the traceback stays in the job
    document."""

    @pytest.fixture(params=["threaded", "async"])
    def failing(self, request, tmp_path):
        from repro import faults

        store = ArtifactStore(root=tmp_path / "store")
        if request.param == "threaded":
            httpd, service = create_server(port=0, store=store,
                                           job_workers=1, job_retries=0,
                                           default_seed=SEED)
            thread = threading.Thread(target=httpd.serve_forever,
                                      daemon=True)
            thread.start()
            base = f"http://127.0.0.1:{httpd.server_address[1]}"
            stop = (httpd.shutdown, httpd.server_close)
        else:
            service = create_service(store=store, job_workers=1,
                                     job_retries=0, default_seed=SEED)
            runner = AsyncServerThread(service)
            host, port = runner.start()
            base = f"http://{host}:{port}"
            stop = (runner.stop,)
        faults.configure("seed=1,jobs.error=1")
        try:
            yield base, service
        finally:
            faults.configure(None)
            for fn in stop:
                fn()
            service.queue.shutdown()

    def test_failed_job_header_is_one_line(self, failing):
        base, _ = failing
        lines, body = _raw_get(base, f"/v1/coverage?seed={SEED}&wait=1")
        assert lines[0].startswith(b"HTTP/1.1 503 ")
        for line in lines[1:]:
            assert _HEADER_LINE.fullmatch(line), line
        headers = dict(line.decode().split(": ", 1) for line in lines[1:])
        assert headers["X-Repro-Degraded"] == "job-failed"
        assert int(headers["Content-Length"]) == len(body)
        assert json.loads(body)["error"] == "job-failed"

        job_id = ENDPOINTS["coverage"].key(SEED, {}).digest
        _, _, doc = _get(base, f"/v1/jobs/{job_id}")
        doc = json.loads(doc)
        assert doc["state"] == "failed"
        assert "Traceback (most recent call last)" in doc["error"]
        assert "\n" in doc["error"]

    def test_compute_error_text_stays_in_the_body(self, tmp_path,
                                                  monkeypatch):
        service = create_service(
            store=ArtifactStore(root=tmp_path / "store"), job_workers=1,
            default_seed=SEED)

        def fail(*args, **kwargs):
            raise RuntimeError("line one\nline two")

        monkeypatch.setattr(service, "_compute_and_store", fail)
        try:
            response = service.handle(f"/v1/summary?seed={SEED}")
        finally:
            service.queue.shutdown()
        assert response.status == 503
        assert response.headers["X-Repro-Degraded"] == "compute-failed"
        assert json.loads(response.body)["detail"] == "line one\nline two"
