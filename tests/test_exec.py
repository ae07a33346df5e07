"""The repro.exec layer: deterministic fan-out and shared contexts."""

from __future__ import annotations

import threading
import time

import pytest

from repro import build_world
from repro.exec import (
    CONTEXT,
    MIN_CHUNKSIZE,
    RoutingContext,
    chunk_plan,
    current_payload,
    fork_available,
    get_default_workers,
    map_tasks,
    pair_for,
    resolve_workers,
    routing_for,
    set_default_workers,
    suggested_workers,
)
from repro.routing import BGPRouting, PhysicalNetwork

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform has no fork")


def _square(x: int) -> int:
    return x * x


def _with_payload(x: int) -> int:
    return x + current_payload()


def _payload_seen(x: int):
    time.sleep(0.001)  # yield the interpreter lock mid-batch
    return current_payload()


def _nested(x: int) -> list[int]:
    # A worker fanning out again must silently degrade to serial.
    return map_tasks(_square, [x, x + 1], workers=4)


# ----------------------------------------------------------------------
class TestMapTasks:
    def test_serial_preserves_order(self):
        assert map_tasks(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_batch(self):
        assert map_tasks(_square, []) == []

    @needs_fork
    def test_parallel_matches_serial(self):
        items = list(range(40))
        assert map_tasks(_square, items, workers=3) == \
            map_tasks(_square, items, workers=1)

    def test_payload_reaches_serial_tasks(self):
        assert map_tasks(_with_payload, [1, 2], payload=10) == [11, 12]
        assert current_payload() is None  # restored after the batch

    @needs_fork
    def test_payload_reaches_parallel_tasks(self):
        assert map_tasks(_with_payload, [1, 2], workers=2,
                         payload=10) == [11, 12]

    @pytest.mark.parametrize("workers", [
        1, pytest.param(2, marks=needs_fork)])
    def test_concurrent_batches_see_their_own_payload(self, workers):
        # The service runs two job threads; each thread's batches must
        # read only the payload that thread passed, never the other's.
        batches, items = (20, 20) if workers == 1 else (10, 8)
        start = threading.Barrier(2)
        seen: dict[str, list] = {"a": [], "b": []}

        def run(tag: str) -> None:
            start.wait(timeout=30)
            for _ in range(batches):
                seen[tag].extend(map_tasks(_payload_seen, range(items),
                                           workers=workers, payload=tag))

        threads = [threading.Thread(target=run, args=(tag,))
                   for tag in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        for tag, values in seen.items():
            assert values == [tag] * (batches * items)
        assert current_payload() is None

    @needs_fork
    def test_nested_fanout_runs_serially(self):
        assert map_tasks(_nested, [2, 5], workers=2) == \
            [[4, 9], [25, 36]]

    def test_default_workers_round_trip(self):
        before = get_default_workers()
        try:
            set_default_workers(3)
            assert get_default_workers() == 3
            if fork_available():
                assert resolve_workers(None) == 3
            set_default_workers(0)  # clamped to 1
            assert get_default_workers() == 1
        finally:
            set_default_workers(before)

    def test_suggested_workers_positive(self):
        assert suggested_workers() >= 1


# ----------------------------------------------------------------------
class TestChunkPlan:
    """Pin the dispatch chunking so small batches never degrade to
    one-item chunks (the old ``len(items) // (workers * 4)`` heuristic
    floored to 1 and paid one pipe round-trip per task)."""

    @staticmethod
    def _chunks(n: int, workers: int) -> int:
        size = chunk_plan(n, workers)
        return -(-n // size)  # ceil

    def test_minimum_chunk_size_enforced(self):
        # 8 items / 2 workers used to yield size 1 (8 chunks); the
        # minimum now batches them 4 at a time.
        assert chunk_plan(8, 2) == MIN_CHUNKSIZE
        assert self._chunks(8, 2) == 2

    def test_small_batch_is_one_chunk(self):
        # Fewer items than the minimum: one chunk, never size > n.
        assert chunk_plan(3, 4) == 3
        assert self._chunks(3, 4) == 1

    def test_large_batch_targets_four_chunks_per_worker(self):
        assert chunk_plan(1000, 4) == 62
        assert self._chunks(1000, 4) == 17

    def test_exact_chunk_counts_pinned(self):
        # (n_items, workers) -> chunk count, pinned so heuristic
        # changes are deliberate.
        expected = {
            (1, 2): 1, (4, 2): 1, (8, 2): 2, (16, 2): 4,
            (40, 2): 8, (40, 4): 10, (100, 2): 9, (2171, 2): 9,
        }
        actual = {key: self._chunks(*key) for key in expected}
        assert actual == expected

    def test_never_zero_or_oversized(self):
        for n in (1, 2, 5, 17, 63, 400):
            for workers in (1, 2, 3, 8):
                size = chunk_plan(n, workers)
                assert 1 <= size <= n


# ----------------------------------------------------------------------
class TestRoutingContext:
    def test_pair_is_cached(self, topo):
        ctx = RoutingContext()
        r1, p1 = ctx.pair(topo)
        r2, p2 = ctx.pair(topo)
        assert r1 is r2 and p1 is p2
        assert ctx.builds == 1 and ctx.hits == 1
        assert isinstance(r1, BGPRouting)
        assert isinstance(p1, PhysicalNetwork)

    def test_down_cables_share_one_pair(self, topo):
        # Cuts are per-query on both BGPRouting and PhysicalNetwork, so
        # every down-set must reuse the same built pair.
        ctx = RoutingContext()
        r1, _ = ctx.pair(topo)
        r2, _ = ctx.pair(topo, down_cables=(1, 2))
        assert r1 is r2
        assert ctx.builds == 1

    def test_distinct_topologies_get_distinct_pairs(self, topo):
        ctx = RoutingContext()
        other = topo.structured_copy()
        r1, _ = ctx.pair(topo)
        r2, _ = ctx.pair(other)
        assert r1 is not r2
        assert ctx.builds == 2

    def test_invalidate_forces_rebuild(self, topo):
        ctx = RoutingContext()
        r1, _ = ctx.pair(topo)
        ctx.invalidate(topo)
        r2, _ = ctx.pair(topo)
        assert r1 is not r2

    def test_lru_eviction_bounds_the_cache(self, topo):
        ctx = RoutingContext(maxsize=2)
        first = topo.structured_copy()
        second = topo.structured_copy()
        third = topo.structured_copy()
        ctx.pair(first)
        ctx.pair(second)
        ctx.pair(first)        # refresh: first is now most recent
        ctx.pair(third)        # evicts second, the least recent
        assert id(second) not in ctx._pairs
        assert id(first) in ctx._pairs and id(third) in ctx._pairs
        assert len(ctx._pairs) == 2

    def test_module_helpers_use_singleton(self, topo):
        routing, phys = pair_for(topo)
        assert routing_for(topo) is routing
        assert CONTEXT.pair(topo) == (routing, phys)


# ----------------------------------------------------------------------
class TestRoutingContextThreadSafety:
    """The threaded HTTP service hits one shared context concurrently;
    lookups, builds, eviction and invalidation must never corrupt the
    LRU or hand a caller a half-built pair."""

    def test_concurrent_pair_hammer(self, topo):
        import threading

        ctx = RoutingContext(maxsize=2)
        topos = [topo, topo.structured_copy(), topo.structured_copy()]
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def hammer(i: int) -> None:
            try:
                barrier.wait(timeout=10)
                for n in range(60):
                    t = topos[(i + n) % len(topos)]
                    routing, phys = ctx.pair(t)
                    # A returned pair must be fully built and belong
                    # to the topology that was asked for.
                    assert isinstance(routing, BGPRouting)
                    assert isinstance(phys, PhysicalNetwork)
                    assert routing._topo is t
                    if n % 17 == 0:
                        ctx.invalidate(t)
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert len(ctx._pairs) <= 2
        # Every lookup either hit or built; nothing was lost to races.
        assert ctx.hits + ctx.builds == 8 * 60

    def test_concurrent_single_topology_builds_once(self, topo):
        import threading

        ctx = RoutingContext()
        other = topo.structured_copy()
        barrier = threading.Barrier(6)
        results: list = []

        def fetch() -> None:
            barrier.wait(timeout=10)
            results.append(ctx.pair(other))

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == 6
        # All racers share the single built pair: the lock makes the
        # build atomic instead of N threads constructing N pairs.
        assert all(r == results[0] for r in results)
        assert ctx.builds == 1 and ctx.hits == 5


# ----------------------------------------------------------------------
class TestPrecompute:
    def test_precompute_matches_lazy_tables(self, topo):
        dests = sorted(topo.ases)[:6]
        lazy = BGPRouting(topo)
        expected = {d: lazy.routes_to(d) for d in dests}
        warmed = BGPRouting(topo)
        computed = warmed.precompute(dests, workers=1)
        assert computed == len(dests)
        assert {d: warmed.routes_to(d) for d in dests} == expected
        # Second call is a no-op: everything is cached.
        assert warmed.precompute(dests, workers=1) == 0

    @needs_fork
    def test_parallel_precompute_identical(self, topo):
        dests = sorted(topo.ases)[:8]
        serial = BGPRouting(topo)
        serial.precompute(dests, workers=1)
        parallel = BGPRouting(topo)
        parallel.precompute(dests, workers=2)
        for d in dests:
            assert parallel.routes_to(d) == serial.routes_to(d)

    def test_precompute_rejects_unknown_destination(self, topo):
        with pytest.raises(KeyError):
            BGPRouting(topo).precompute([max(topo.ases) + 1], workers=1)
