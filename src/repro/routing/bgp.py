"""Valley-free (Gao-Rexford) interdomain routing.

Route computation follows the standard model:

* An AS prefers routes learned from customers over peers over providers
  (economics: customers pay you), then shorter AS paths, then a
  deterministic tie-break (lowest next-hop ASN).
* Export rules: routes learned from customers are exported to everyone;
  routes learned from peers/providers are exported only to customers.

These policies — not shortest paths — are what produce the paper's
detours: two African stubs whose only common upstream is a European
carrier will exchange traffic through Europe even though a shorter
geographic path exists (§4.1).  The ablation benchmark
``bench_ablation_routing`` quantifies exactly this gap.

Since the compiled-core rewrite, :class:`BGPRouting` runs the three
Gao-Rexford phases over the flat CSR arrays of a shared
:class:`~repro.routing.compiled.CompiledTopology` and emits
array-backed :class:`~repro.routing.compiled.RouteTable` views —
~3-4x faster and ~10x smaller per table than the retained
:class:`ReferenceRouting` dict implementation, which stays around as
the equivalence oracle for tests and ``scripts/micro.py``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Hashable, Iterable, Optional

from repro.routing.compiled import (
    NO_ROUTE,
    CompiledTopology,
    LinkFilter,
    RouteEntry,
    RouteKind,
    RouteTable,
    SharedTableStore,
    compute_columns,
    compute_table,
)
from repro.topology import Relationship, Topology
from repro import telemetry

_TABLE_COMPUTES = telemetry.counter(
    "repro_routing_table_computations_total",
    "Per-destination routing tables computed (cache misses)")
_TABLE_HITS = telemetry.counter(
    "repro_routing_table_cache_hits_total",
    "Routing-table lookups served from cache")
_PATHS_RESOLVED = telemetry.counter(
    "repro_routing_paths_resolved_total",
    "AS paths resolved", labels=("found",))
_PATH_LENGTH = telemetry.histogram(
    "repro_routing_path_length_hops", "AS-path length of resolved paths",
    buckets=(1, 2, 3, 4, 5, 6, 8, 10, 14))
# Labelled children resolved once at import: ``.labels()`` walks a
# lock-guarded child map, far too much work for a per-path call site.
_PATH_FOUND = _PATHS_RESOLVED.labels(found="yes")
_PATH_MISS = _PATHS_RESOLVED.labels(found="no")
_PATH_CACHE = telemetry.counter(
    "repro_routing_path_cache_total",
    "Measured-path cache lookups", labels=("result",))
_PATH_CACHE_HIT = _PATH_CACHE.labels(result="hit")
_PATH_CACHE_MISS = _PATH_CACHE.labels(result="miss")

#: Resolved measurement paths one routing engine keeps (see
#: :class:`PathCache`).  Perfbench's campaign workload measures about
#: 1,900 distinct (probe AS, target) pairs on one continental world.
PATH_CACHE_SIZE = 4096


class PathCache:
    """Bounded map of resolved measurement paths.

    :class:`~repro.measurement.MeasurementEngine` stores here what a
    ``(source AS, target address)`` pair resolves to, so re-measuring
    the pair (every round of a campaign, both traceroute and ping)
    skips target resolution and the geography walk.  The values are
    pure functions of the topology and the routing tables, so the
    cache lives and dies with its :class:`BGPRouting` engine exactly
    like the route tables do.

    Safe for concurrent use without holding a lock during a
    computation: readers never lock, and two threads that miss on one
    key both compute it and store equal values.  A short lock guards
    only the insert and the eviction of the oldest entry when
    ``maxsize`` is reached.
    """

    def __init__(self, maxsize: int = PATH_CACHE_SIZE) -> None:
        self.maxsize = max(1, maxsize)
        self._entries: dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The cached value, or ``None``."""
        value = self._entries.get(key)
        if telemetry.enabled():
            (_PATH_CACHE_MISS if value is None else _PATH_CACHE_HIT).inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            entries = self._entries
            if key not in entries:
                while entries and len(entries) >= self.maxsize:
                    del entries[next(iter(entries))]  # oldest first
            entries[key] = value


class BGPRouting:
    """Per-destination valley-free routing over a :class:`Topology`.

    Routing tables are computed lazily per destination AS and cached;
    pass ``link_filter`` to exclude failed adjacencies (the outage
    engine builds one from the physical layer).  Tables come out of the
    compiled array core as :class:`RouteTable` views — drop-in
    replacements for the ``dict[int, RouteEntry]`` they used to be.
    """

    def __init__(self, topo: Topology,
                 link_filter: Optional[LinkFilter] = None) -> None:
        self._topo = topo
        self._filtered = link_filter is not None
        self._compiled = (CompiledTopology(topo, link_filter)
                          if self._filtered else CompiledTopology.of(topo))
        self._tables: dict[int, RouteTable] = {}
        #: Resolved measurement paths over this engine's tables.
        self.paths = PathCache()

    @property
    def compiled(self) -> CompiledTopology:
        """The shared compiled topology this engine routes over."""
        return self._compiled

    # ------------------------------------------------------------------
    def routes_to(self, dst: int) -> RouteTable:
        """Best route of every AS that can reach ``dst``."""
        cached = self._tables.get(dst)
        if cached is None:
            if dst not in self._topo.ases:
                raise KeyError(f"unknown destination AS{dst}")
            _TABLE_COMPUTES.inc()
            cached = self._compute(dst)
            self._tables[dst] = cached
        else:
            _TABLE_HITS.inc()
        return cached

    def path(self, src: int, dst: int) -> Optional[list[int]]:
        """AS path from ``src`` to ``dst`` (inclusive), or ``None``."""
        if src == dst:
            return [src]
        table = self.routes_to(dst)
        path = _walk_next_hops(table, src, dst)
        if telemetry.enabled():
            if path is None:
                _PATH_MISS.inc()
            else:
                _PATH_FOUND.inc()
                _PATH_LENGTH.observe(len(path))
        return path

    def path_links(self, src: int, dst: int
                   ) -> Optional[list[tuple[int, int, Optional[int]]]]:
        """The (a, b, ixp_id) hops of the path, or ``None``.

        Resolves the destination table once and walks next-hop indexes
        directly — the hop list and the path come out of one pass.
        """
        table = self.routes_to(dst)
        if src == dst:
            return []
        path = _walk_next_hops(table, src, dst)
        if path is None:
            if telemetry.enabled():
                _PATH_MISS.inc()
            return None
        if telemetry.enabled():
            _PATH_FOUND.inc()
            _PATH_LENGTH.observe(len(path))
        ct = table._compiled
        index = ct.index
        via = table.via_ixp
        hops = []
        for a, b in zip(path, path[1:]):
            ixp = via[index[a]]
            hops.append((a, b, None if ixp == -1 else ixp))
        return hops

    def reachable_from(self, dst: int) -> set[int]:
        """ASes with any route to ``dst`` (including ``dst``)."""
        return set(self.routes_to(dst))

    def precompute(self, dests: Iterable[int],
                   workers: Optional[int] = None) -> int:
        """Warm the per-destination table cache, optionally in parallel.

        Tables are pure functions of the (already compiled) adjacency
        arrays, so fanning the cache misses out over ``workers``
        processes yields exactly the tables a serial loop would.

        The parallel data plane is zero-copy end to end: the compiled
        CSR columns are published once per batch through a shared
        :class:`~repro.routing.compiled.CompiledShare`, workers write
        their four result columns straight into a preallocated
        :class:`~repro.routing.compiled.SharedTableStore` slot, and the
        only thing a worker returns is its slot index.  No table —
        input or output — ever crosses the pipe as a pickle.  On
        platforms without POSIX shared memory the tables are computed
        serially.  Returns the number of tables computed.
        """
        pending = [d for d in dict.fromkeys(dests)
                   if d not in self._tables]
        for dst in pending:
            if dst not in self._topo.ases:
                raise KeyError(f"unknown destination AS{dst}")
        if not pending:
            return 0
        from repro.exec import map_tasks, resolve_workers, shm_supported
        if resolve_workers(workers) == 1 or not shm_supported():
            for dst in pending:
                self.routes_to(dst)
            return len(pending)
        compiled = self._compiled
        with compiled.share() as share, \
                SharedTableStore(len(pending), compiled.n) as store:
            tasks = [(slot, compiled.index[dst])
                     for slot, dst in enumerate(pending)]
            map_tasks(_precompute_shared_table, tasks,
                      workers=workers, payload=share, shared=store,
                      label="routing_tables")
            for slot, dst in enumerate(pending):
                _TABLE_COMPUTES.inc()
                self._tables[dst] = store.table(slot, compiled)
        return len(pending)

    # ------------------------------------------------------------------
    def _compute(self, dst: int) -> RouteTable:
        return compute_table(self._compiled, self._compiled.index[dst])


def _walk_next_hops(table: RouteTable, src: int,
                    dst: int) -> Optional[list[int]]:
    """Follow the table's next-hop indexes src→dst, or ``None``."""
    ct = table._compiled
    cursor = ct.index.get(src)
    kind = table.kind
    if cursor is None or kind[cursor] == NO_ROUTE:
        return None
    asns = ct.asns
    nh = table.next_hop
    target = ct.index[dst]
    path = [src]
    visited = {cursor}
    while cursor != target:
        cursor = nh[cursor]
        if cursor in visited:  # pragma: no cover - defensive
            raise RuntimeError(f"routing loop toward AS{dst}: {path}")
        visited.add(cursor)
        path.append(asns[cursor])
    return path


def _precompute_shared_table(task: tuple[int, int]) -> int:
    """Worker task (shared-memory data plane): compute one table and
    write its columns into the batch's shared store slot.

    The payload is the batch's ``CompiledShare`` (CSR columns in shared
    memory, viewed zero-copy) and the ``shared=`` channel carries the
    preallocated ``SharedTableStore``.  The return value is just the
    slot index — the slot write is idempotent, so crash recovery and
    retries are free.
    """
    from repro.exec import current_payload, current_shared
    slot, dst_index = task
    kind, length, nh, via = compute_columns(
        current_payload().view(), dst_index)
    current_shared().write_row(slot, kind, length, nh, via)
    return slot


class ReferenceRouting:
    """The retained pure-dict routing engine (pre-compiled-core).

    Byte-for-byte the original implementation: Python adjacency lists,
    one ``dict[int, RouteEntry]`` per destination.  It exists as the
    equivalence oracle — ``tests/test_compiled_routing.py`` asserts the
    array engine produces identical entries, paths and reachable sets,
    and ``scripts/micro.py`` measures the speedup against it —
    so keep its semantics frozen.
    """

    def __init__(self, topo: Topology,
                 link_filter: Optional[LinkFilter] = None) -> None:
        self._topo = topo
        self._tables: dict[int, dict[int, RouteEntry]] = {}
        # Adjacency lists split by role, pre-filtered once.
        self._providers_of: dict[int, list[tuple[int, Optional[int]]]] = {}
        self._customers_of: dict[int, list[tuple[int, Optional[int]]]] = {}
        self._peers_of: dict[int, list[tuple[int, Optional[int]]]] = {}
        for asn in topo.ases:
            self._providers_of[asn] = []
            self._customers_of[asn] = []
            self._peers_of[asn] = []
        for link in topo.links:
            if link_filter is not None and not link_filter(link):
                continue
            if link.rel is Relationship.PROVIDER_TO_CUSTOMER:
                self._customers_of[link.a].append((link.b, link.ixp_id))
                self._providers_of[link.b].append((link.a, link.ixp_id))
            else:
                self._peers_of[link.a].append((link.b, link.ixp_id))
                self._peers_of[link.b].append((link.a, link.ixp_id))
        for index in (self._providers_of, self._customers_of,
                      self._peers_of):
            for lst in index.values():
                lst.sort()

    # ------------------------------------------------------------------
    def routes_to(self, dst: int) -> dict[int, RouteEntry]:
        """Best route of every AS that can reach ``dst``."""
        if dst not in self._topo.ases:
            raise KeyError(f"unknown destination AS{dst}")
        cached = self._tables.get(dst)
        if cached is None:
            cached = self._compute(dst)
            self._tables[dst] = cached
        return cached

    def path(self, src: int, dst: int) -> Optional[list[int]]:
        """AS path from ``src`` to ``dst`` (inclusive), or ``None``."""
        if src == dst:
            return [src]
        table = self.routes_to(dst)
        if src not in table:
            return None
        path = [src]
        visited = {src}
        cursor = src
        while cursor != dst:
            cursor = table[cursor].next_hop
            if cursor in visited:  # pragma: no cover - defensive
                raise RuntimeError(f"routing loop toward AS{dst}: {path}")
            visited.add(cursor)
            path.append(cursor)
        return path

    def path_links(self, src: int, dst: int
                   ) -> Optional[list[tuple[int, int, Optional[int]]]]:
        """The (a, b, ixp_id) hops of the path, or ``None``."""
        path = self.path(src, dst)
        if path is None:
            return None
        table = self.routes_to(dst)
        hops = []
        for a in path[:-1]:
            entry = table[a]
            hops.append((a, entry.next_hop, entry.via_ixp))
        return hops

    def reachable_from(self, dst: int) -> set[int]:
        """ASes with any route to ``dst`` (including ``dst``)."""
        return set(self.routes_to(dst))

    # ------------------------------------------------------------------
    def _compute(self, dst: int) -> dict[int, RouteEntry]:
        best: dict[int, RouteEntry] = {
            dst: RouteEntry(RouteKind.SELF, 0, dst)}

        def better(candidate: RouteEntry, incumbent: Optional[RouteEntry]
                   ) -> bool:
            if incumbent is None:
                return True
            return (candidate.kind, candidate.length, candidate.next_hop) < \
                   (incumbent.kind, incumbent.length, incumbent.next_hop)

        # Phase 1 — customer routes: BFS "up" provider edges from dst.
        # An AS whose (transitive) customer originates the route learns
        # it from a customer.
        frontier = deque([dst])
        while frontier:
            current = frontier.popleft()
            length = best[current].length
            for provider, ixp_id in self._providers_of[current]:
                candidate = RouteEntry(RouteKind.CUSTOMER, length + 1,
                                       current, ixp_id)
                if better(candidate, best.get(provider)):
                    best[provider] = candidate
                    frontier.append(provider)

        # Phase 2 — peer routes: one hop across a peering edge from any
        # AS holding a customer (or self) route.  Peer routes are not
        # re-exported to peers/providers, so no propagation.
        exporters = [(asn, entry) for asn, entry in best.items()
                     if entry.kind in (RouteKind.SELF, RouteKind.CUSTOMER)]
        for asn, entry in sorted(exporters):
            for peer, ixp_id in self._peers_of[asn]:
                candidate = RouteEntry(RouteKind.PEER, entry.length + 1,
                                       asn, ixp_id)
                if better(candidate, best.get(peer)):
                    best[peer] = candidate

        # Phase 3 — provider routes: BFS "down" customer edges from every
        # routed AS (providers export everything to customers, and those
        # customers re-export provider routes to their own customers).
        ordered = sorted(best.items(), key=lambda kv: (kv[1].length, kv[0]))
        frontier = deque(asn for asn, _ in ordered)
        while frontier:
            current = frontier.popleft()
            entry = best.get(current)
            if entry is None:  # pragma: no cover - defensive
                continue
            for customer, ixp_id in self._customers_of[current]:
                candidate = RouteEntry(RouteKind.PROVIDER, entry.length + 1,
                                       current, ixp_id)
                if better(candidate, best.get(customer)):
                    best[customer] = candidate
                    frontier.append(customer)
        return best


def is_valley_free(topo: Topology, path: list[int]) -> bool:
    """Check the Gao-Rexford pattern: zero+ up, ≤1 peer, zero+ down.

    Used by tests and the routing ablation to validate produced paths.
    Hop classification runs over the compiled CSR adjacency (binary
    search per hop) instead of per-hop link lookups; non-adjacent
    consecutive ASes still fail the check.
    """
    if len(path) < 2:
        return True
    compiled = CompiledTopology.of(topo)
    # Valid pattern: up* (peer)? down*
    state = "up"
    for a, b in zip(path, path[1:]):
        step = compiled.step_kind(a, b)
        if step is None:
            return False
        if state == "up":
            if step == "up":
                continue
            state = "down" if step == "down" else "peered"
        elif state == "peered":
            if step != "down":
                return False
            state = "down"
        else:  # down
            if step != "down":
                return False
    return True
