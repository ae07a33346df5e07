"""Compiled topology: dense AS indexes, CSR adjacency, array tables.

``BGPRouting`` used to rebuild three dicts of Python adjacency lists
per instance and emit one ``dict[int, RouteEntry]`` of frozen
dataclasses per destination — object graphs that are slow to build,
slow to pickle across the worker pool, and ~10x larger than the
information they carry.  This module is the compiled replacement:

* :class:`CompiledTopology` assigns every AS a **dense index** (sorted
  ASN order, so index comparisons reproduce ASN tie-breaks exactly)
  and stores provider/customer/peer adjacency as **CSR-style flat int
  arrays** (``array('q')`` row offsets, ``array('i')`` neighbor and
  IXP columns).  It is built once per topology — cached on the
  topology instance and shared through ``repro.exec.RoutingContext`` —
  and never mutated; ``Topology.add_link`` drops the cache.
* :func:`compute_table` runs the three Gao-Rexford phases over those
  arrays and emits a :class:`RouteTable`: four parallel flat arrays
  (kind/length/next_hop/via_ixp) behind a thin mapping view that
  preserves the dict-of-``RouteEntry`` API byte for byte.

``ReferenceRouting`` in :mod:`repro.routing.bgp` retains the original
dict implementation; ``tests/test_compiled_routing.py`` and
``scripts/micro.py`` hold the two engines identical on every pinned
seed.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TYPE_CHECKING

from repro.exec.shm import SharedColumnBlock
from repro.topology import ASLink, Relationship

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology import Topology


class RouteKind(enum.IntEnum):
    """How a route was learned; lower is more preferred."""

    SELF = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True)
class RouteEntry:
    """Best route of one AS toward the current destination."""

    kind: RouteKind
    length: int
    next_hop: int  # == own ASN for the destination itself
    #: IXP id if the first hop crosses an IXP fabric.
    via_ixp: Optional[int] = None


#: Predicate deciding whether a link is usable (outage injection).
LinkFilter = Callable[[ASLink], bool]

#: ``kind`` sentinel for "no route" slots in a :class:`RouteTable`.
NO_ROUTE = 4

#: Attribute name under which a topology caches its compiled form.
_CACHE_ATTR = "_compiled_topology"


class _CSR:
    """One role's adjacency in compressed-sparse-row form.

    ``start`` (``array('q')``, length n+1) delimits each AS's neighbor
    row inside the flat ``nbr``/``ixp`` columns (``array('i')``).
    Rows are sorted by neighbor index, which — because the dense index
    is sorted-ASN order — reproduces the reference implementation's
    sorted-adjacency iteration exactly.
    """

    __slots__ = ("start", "nbr", "ixp", "_rows")

    def __init__(self, rows: list[list[tuple[int, int]]]) -> None:
        start = array("q", [0])
        nbr = array("i")
        ixp = array("i")
        for row in rows:
            row.sort()
            for j, x in row:
                nbr.append(j)
                ixp.append(x)
            start.append(len(nbr))
        self.start = start
        self.nbr = nbr
        self.ixp = ixp
        self._rows: Optional[list[tuple[tuple[int, int], ...]]] = None

    @classmethod
    def from_columns(cls, start, nbr, ixp) -> "_CSR":
        """Wrap existing columns (arrays *or* shared-memory views)
        without copying — the worker-side attach path."""
        out = cls.__new__(cls)
        out.start = start
        out.nbr = nbr
        out.ixp = ixp
        out._rows = None
        return out

    def rows(self) -> list[tuple[tuple[int, int], ...]]:
        """Per-AS ``((neighbor, ixp), ...)`` views over the flat
        arrays, materialized once for the table-compute hot loop."""
        rows = self._rows
        if rows is None:
            start, nbr, ixp = self.start, self.nbr, self.ixp
            rows = [tuple(zip(nbr[start[i]:start[i + 1]],
                              ixp[start[i]:start[i + 1]]))
                    for i in range(len(start) - 1)]
            self._rows = rows
        return rows

    def contains(self, i: int, j: int) -> bool:
        """Whether ``j`` is in row ``i`` (binary search on the row)."""
        lo, hi = self.start[i], self.start[i + 1]
        k = bisect_left(self.nbr, j, lo, hi)
        return k < hi and self.nbr[k] == j

    def spliced(self, extra: dict[int, list[tuple[int, int]]]) -> "_CSR":
        """A new CSR with ``extra[i]`` entries merged into row ``i``.

        Identical to recompiling from the extended edge list, but the
        untouched spans between affected rows are bulk array copies
        (C memcpy) instead of per-edge Python appends — the cost scales
        with the *edit*, not the graph.  ``self`` is returned untouched
        when there is nothing to merge.
        """
        if not extra:
            return self
        old_start, old_nbr, old_ixp = self.start, self.nbr, self.ixp
        n = len(old_start) - 1
        nbr = array("i")
        ixp = array("i")
        starts = list(old_start)
        prev = 0
        for node in sorted(extra):
            lo, hi = old_start[prev], old_start[node]
            nbr += old_nbr[lo:hi]
            ixp += old_ixp[lo:hi]
            row = sorted(list(zip(old_nbr[old_start[node]:
                                          old_start[node + 1]],
                                  old_ixp[old_start[node]:
                                          old_start[node + 1]]))
                         + extra[node])
            for j, x in row:
                nbr.append(j)
                ixp.append(x)
            grew = len(extra[node])
            for i in range(node + 1, n + 1):
                starts[i] += grew
            prev = node + 1
        nbr += old_nbr[old_start[prev]:]
        ixp += old_ixp[old_start[prev]:]
        out = _CSR.__new__(_CSR)
        out.start = array("q", starts)
        out.nbr = nbr
        out.ixp = ixp
        out._rows = None
        return out


class CompiledTopology:
    """Frozen dense-index view of one topology's AS-level graph.

    Built once per (topology, link filter) and treated as immutable —
    every consumer (routing engines, valley-free checks, what-if dirty
    sets) shares the same arrays.  The per-AS dense index is sorted-ASN
    order, so comparing indexes is exactly comparing ASNs.
    """

    __slots__ = ("asns", "index", "n",
                 "providers", "customers", "peers",
                 "_kind_tmpl", "_int_tmpl")

    def __init__(self, topo: "Topology",
                 link_filter: Optional[LinkFilter] = None) -> None:
        asns = tuple(sorted(topo.ases))
        index = {asn: i for i, asn in enumerate(asns)}
        n = len(asns)
        prov: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        cust: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        peer: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for link in topo.links:
            if link_filter is not None and not link_filter(link):
                continue
            ia, ib = index[link.a], index[link.b]
            ixp = -1 if link.ixp_id is None else link.ixp_id
            if link.rel is Relationship.PROVIDER_TO_CUSTOMER:
                cust[ia].append((ib, ixp))
                prov[ib].append((ia, ixp))
            else:
                peer[ia].append((ib, ixp))
                peer[ib].append((ia, ixp))
        self.asns = asns
        self.index = index
        self.n = n
        self.providers = _CSR(prov)
        self.customers = _CSR(cust)
        self.peers = _CSR(peer)
        # Work-buffer templates: copied per table compute, so the hot
        # loop never pays a per-element list build.
        self._kind_tmpl = [NO_ROUTE] * n
        self._int_tmpl = [-1] * n

    # ------------------------------------------------------------------
    @classmethod
    def of(cls, topo: "Topology") -> "CompiledTopology":
        """The (unfiltered) compiled form of ``topo``, built once.

        Cached on the topology instance; ``Topology.add_link``
        invalidates the cache so a later compile sees the new edge.
        """
        cached = topo.__dict__.get(_CACHE_ATTR)
        if cached is None:
            cached = cls(topo)
            topo.__dict__[_CACHE_ATTR] = cached
        return cached

    def extended(self, added_links: list[ASLink]) -> "CompiledTopology":
        """This view plus ``added_links``, by splicing — not recompiling.

        Exactly what ``CompiledTopology(topo)`` would build for the
        extended edge list (every endpoint must already be indexed),
        but only the affected CSR rows are rebuilt; everything else —
        index, untouched roles, work-buffer templates — is shared with
        this view.  This is what keeps a ``DeltaRouting`` attach
        proportional to the edit instead of the graph.
        """
        prov: dict[int, list[tuple[int, int]]] = {}
        cust: dict[int, list[tuple[int, int]]] = {}
        peer: dict[int, list[tuple[int, int]]] = {}
        for link in added_links:
            ia, ib = self.index[link.a], self.index[link.b]
            ixp = -1 if link.ixp_id is None else link.ixp_id
            if link.rel is Relationship.PROVIDER_TO_CUSTOMER:
                cust.setdefault(ia, []).append((ib, ixp))
                prov.setdefault(ib, []).append((ia, ixp))
            else:
                peer.setdefault(ia, []).append((ib, ixp))
                peer.setdefault(ib, []).append((ia, ixp))
        out = CompiledTopology.__new__(CompiledTopology)
        out.asns = self.asns
        out.index = self.index
        out.n = self.n
        out.providers = self.providers.spliced(prov)
        out.customers = self.customers.spliced(cust)
        out.peers = self.peers.spliced(peer)
        out._kind_tmpl = self._kind_tmpl
        out._int_tmpl = self._int_tmpl
        return out

    # ------------------------------------------------------------------
    def step_kind(self, a: int, b: int) -> Optional[str]:
        """Classify the hop a→b from the sender's perspective:
        ``"up"`` (to a provider), ``"down"`` (to a customer),
        ``"peer"``, or ``None`` when the ASes are not adjacent (or
        unknown)."""
        ia = self.index.get(a)
        ib = self.index.get(b)
        if ia is None or ib is None:
            return None
        if self.customers.contains(ia, ib):
            return "down"
        if self.providers.contains(ia, ib):
            return "up"
        if self.peers.contains(ia, ib):
            return "peer"
        return None

    def customer_cone(self, asn: int) -> set[int]:
        """ASNs reachable from ``asn`` by only walking customer edges
        (including ``asn`` itself) — the set of destinations a
        Gao-Rexford AS exports across its peer links."""
        start, nbr = self.customers.start, self.customers.nbr
        root = self.index[asn]
        seen = {root}
        frontier = deque([root])
        while frontier:
            cur = frontier.popleft()
            for k in range(start[cur], start[cur + 1]):
                child = nbr[k]
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        asns = self.asns
        return {asns[i] for i in seen}

    def share(self) -> "CompiledShare":
        """Publish this view's CSR columns into one shared-memory block.

        The batch-dispatch form: the returned :class:`CompiledShare`
        travels to forked workers through the pool's payload channel,
        and each worker attaches zero-copy views over the block instead
        of touching (or pickling) these arrays.  The caller owns the
        block and must ``close()`` it when the batch is harvested.
        """
        return CompiledShare(self)


#: (attribute, column-prefix) pairs for the three CSR roles of a share.
_SHARE_ROLES = (("providers", "p"), ("customers", "c"), ("peers", "e"))


class CompiledShare:
    """One topology's CSR adjacency, published once in shared memory.

    Holds the six flat *edge* columns (``nbr``/``ixp`` per role) in a
    single :class:`~repro.exec.shm.SharedColumnBlock`.  The three
    ``array('q')`` row-offset columns are **not** copied into the
    block: they are immutable once compiled, so the share keeps direct
    references to the compiled topology's own ``start`` arrays and the
    fork hands workers the same pages copy-on-write — exactly like
    ``asns`` and the dense ``index``.  That identity is what lets
    scenario copies built with :meth:`CompiledTopology.extended` share
    one offset array per untouched role across the base view, the
    share and every worker, instead of re-materialising ~n×8 bytes per
    copy (``tests/test_shared_memory.py`` asserts it).  :meth:`view`
    builds — once per process — a :class:`CompiledTopology` whose edge
    arrays are memoryview casts over the block: workers compute tables
    over the exact bytes the parent published, zero copies anywhere.

    Does not pickle (by design): reach workers via ``payload=``.
    """

    __slots__ = ("n", "asns", "index", "starts", "_block", "_view")

    def __init__(self, ct: CompiledTopology) -> None:
        columns: list[tuple[str, str, int]] = []
        for attr, prefix in _SHARE_ROLES:
            csr: _CSR = getattr(ct, attr)
            columns.append((f"{prefix}.nbr", "i", len(csr.nbr)))
            columns.append((f"{prefix}.ixp", "i", len(csr.ixp)))
        self._block = SharedColumnBlock(columns)
        #: Role prefix → the compiled topology's own offset array,
        #: shared by reference (parent) / fork inheritance (workers).
        self.starts: dict[str, array] = {}
        for attr, prefix in _SHARE_ROLES:
            csr = getattr(ct, attr)
            self._block.write(f"{prefix}.nbr", 0, csr.nbr)
            self._block.write(f"{prefix}.ixp", 0, csr.ixp)
            self.starts[prefix] = csr.start
        self.n = ct.n
        self.asns = ct.asns
        self.index = ct.index
        self._view: Optional[CompiledTopology] = None

    def view(self) -> CompiledTopology:
        """The attached compiled topology (built lazily, cached per
        process — after a fork each worker caches its own)."""
        view = self._view
        if view is None:
            view = CompiledTopology.__new__(CompiledTopology)
            view.asns = self.asns
            view.index = self.index
            view.n = self.n
            for attr, prefix in _SHARE_ROLES:
                setattr(view, attr, _CSR.from_columns(
                    self.starts[prefix],
                    self._block.column(f"{prefix}.nbr"),
                    self._block.column(f"{prefix}.ixp")))
            view._kind_tmpl = [NO_ROUTE] * self.n
            view._int_tmpl = [-1] * self.n
            self._view = view
        return view

    @property
    def nbytes(self) -> int:
        return self._block.nbytes

    def close(self) -> None:
        """Release and unlink the block (idempotent; parent only)."""
        self._view = None
        self._block.close()

    def __enter__(self) -> "CompiledShare":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RouteTable:
    """One destination's routing table as four parallel flat arrays.

    A mapping-compatible view over ``kind``/``length``/``next_hop``/
    ``via_ixp`` (indexed by the compiled dense AS index) that behaves
    exactly like the ``dict[int, RouteEntry]`` it replaced: ``in``,
    ``[]``, iteration over routed ASNs, ``len``, equality — while
    storing ~10x fewer bytes.  ``next_hop``
    holds dense indexes; ``via_ixp`` holds ``-1`` for "no fabric".
    """

    __slots__ = ("kind", "length", "next_hop", "via_ixp",
                 "_compiled", "_size")

    def __init__(self, kind: array, length: array, next_hop: array,
                 via_ixp: array,
                 compiled: Optional[CompiledTopology] = None) -> None:
        self.kind = kind
        self.length = length
        self.next_hop = next_hop
        self.via_ixp = via_ixp
        self._compiled = compiled
        self._size: Optional[int] = None

    # ------------------------------------------------------------------
    def __contains__(self, asn: object) -> bool:
        i = self._compiled.index.get(asn)
        return i is not None and self.kind[i] != NO_ROUTE

    def __getitem__(self, asn: int) -> RouteEntry:
        i = self._compiled.index.get(asn)
        if i is None or self.kind[i] == NO_ROUTE:
            raise KeyError(asn)
        via = self.via_ixp[i]
        return RouteEntry(RouteKind(self.kind[i]), self.length[i],
                          self._compiled.asns[self.next_hop[i]],
                          None if via == -1 else via)

    def get(self, asn: int, default=None):
        i = self._compiled.index.get(asn)
        if i is None or self.kind[i] == NO_ROUTE:
            return default
        return self[asn]

    def __iter__(self) -> Iterator[int]:
        kind = self.kind
        asns = self._compiled.asns
        return (asns[i] for i in range(len(kind))
                if kind[i] != NO_ROUTE)

    def __len__(self) -> int:
        size = self._size
        if size is None:
            no_route = NO_ROUTE
            size = sum(1 for k in self.kind if k != no_route)
            self._size = size
        return size

    def keys(self):
        return list(self)

    def items(self):
        return ((asn, self[asn]) for asn in self)

    def values(self):
        return (self[asn] for asn in self)

    def to_dict(self) -> dict[int, RouteEntry]:
        """Materialize the old object-graph form (tests, digests)."""
        return {asn: self[asn] for asn in self}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RouteTable):
            if self._compiled.asns != other._compiled.asns:
                return self.to_dict() == other.to_dict()
            return (self.kind == other.kind
                    and self.length == other.length
                    and self.next_hop == other.next_hop
                    and self.via_ixp == other.via_ixp)
        if isinstance(other, dict):
            if len(self) != len(other):
                return False
            return all(other.get(asn) == entry
                       for asn, entry in self.items())
        return NotImplemented

    __hash__ = None  # mutable-ish view, like dict

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RouteTable {len(self)} routed of {len(self.kind)}>"


def compute_table(ct: CompiledTopology, dst_index: int) -> RouteTable:
    """One destination's valley-free table over the compiled arrays.

    Same three Gao-Rexford phases — and the exact (kind, length,
    lowest-next-hop-ASN) tie-break — as the retained dict reference
    implementation, but relaxing flat int work-buffers instead of
    allocating a ``RouteEntry`` per candidate.  Index comparisons stand
    in for ASN comparisons because the dense index is sorted-ASN order.
    """
    kind, length, nh, via = compute_columns(ct, dst_index)
    return RouteTable(array("b", kind), array("i", length),
                      array("i", nh), array("i", via), ct)


def compute_columns(ct: CompiledTopology, dst_index: int
                    ) -> tuple[list[int], list[int],
                               list[int], list[int]]:
    """The table compute itself: raw (kind, length, next_hop, via_ixp)
    work-buffers for one destination.  :func:`compute_table` wraps them
    into a :class:`RouteTable`; the shared-memory dispatch path writes
    them straight into a :class:`SharedTableStore` slot instead."""
    n = ct.n
    kind = ct._kind_tmpl[:]
    length = [0] * n
    nh = ct._int_tmpl[:]
    via = ct._int_tmpl[:]
    kind[dst_index] = 0  # SELF
    nh[dst_index] = dst_index

    # Phase 1 — customer routes: BFS "up" provider edges from dst.
    prov_rows = ct.providers.rows()
    frontier = deque([dst_index])
    pop = frontier.popleft
    push = frontier.append
    while frontier:
        cur = pop()
        clen = length[cur] + 1
        for p, ix in prov_rows[cur]:
            pk = kind[p]
            if pk > 1 or (pk == 1 and (clen < length[p] or (
                    clen == length[p] and cur < nh[p]))):
                kind[p] = 1  # CUSTOMER
                length[p] = clen
                nh[p] = cur
                via[p] = ix
                push(p)

    # Phase 2 — peer routes: one hop across a peering edge from any AS
    # holding a customer (or self) route; never re-exported, and never
    # displacing a customer/self route, so the exporter set is fixed.
    peer_rows = ct.peers.rows()
    for i in range(n):
        if kind[i] <= 1:
            clen = length[i] + 1
            for q, ix in peer_rows[i]:
                qk = kind[q]
                if qk > 2 or (qk == 2 and (clen < length[q] or (
                        clen == length[q] and i < nh[q]))):
                    kind[q] = 2  # PEER
                    length[q] = clen
                    nh[q] = i
                    via[q] = ix

    # Phase 3 — provider routes: BFS "down" customer edges from every
    # routed AS, shortest-and-lowest first.
    cust_rows = ct.customers.rows()
    ordered = sorted((length[i], i) for i in range(n) if kind[i] != 4)
    frontier = deque(i for _, i in ordered)
    pop = frontier.popleft
    push = frontier.append
    while frontier:
        cur = pop()
        clen = length[cur] + 1
        for c, ix in cust_rows[cur]:
            ck = kind[c]
            if ck > 3 or (ck == 3 and (clen < length[c] or (
                    clen == length[c] and cur < nh[c]))):
                kind[c] = 3  # PROVIDER
                length[c] = clen
                nh[c] = cur
                push(c)
                via[c] = ix

    return kind, length, nh, via


#: The four parallel columns of a :class:`RouteTable`, with typecodes.
_TABLE_COLUMNS = (("kind", "b"), ("length", "i"),
                  ("next_hop", "i"), ("via_ixp", "i"))


class SharedTableStore:
    """Preallocated shared-memory result columns for a table batch.

    One slot per destination: ``RouteTable``'s four columns, each slot
    ``n`` elements wide, all living in a single segment the parent
    allocates before the pool forks.  Workers fill their slot in place
    (:meth:`write_row` — idempotent, so crash recovery just re-runs);
    the parent harvests with :meth:`table`, which materializes plain
    arrays via one bulk copy per column so the tables outlive the
    segment, then closes the block.  Nothing is ever pickled.
    """

    __slots__ = ("n", "n_tables", "_block")

    def __init__(self, n_tables: int, n: int) -> None:
        self.n = n
        self.n_tables = n_tables
        self._block = SharedColumnBlock(
            [(name, typecode, n_tables * n)
             for name, typecode in _TABLE_COLUMNS])

    def write_row(self, slot: int, kind: list[int], length: list[int],
                  next_hop: list[int], via_ixp: list[int]) -> None:
        """Fill one destination's slot from compute work-buffers."""
        base = slot * self.n
        block = self._block
        block.write("kind", base, array("b", kind))
        block.write("length", base, array("i", length))
        block.write("next_hop", base, array("i", next_hop))
        block.write("via_ixp", base, array("i", via_ixp))

    def table(self, slot: int,
              compiled: Optional[CompiledTopology] = None) -> RouteTable:
        """Materialize one slot as a standalone :class:`RouteTable`."""
        base = slot * self.n
        block = self._block
        return RouteTable(block.read_array("kind", base, self.n),
                          block.read_array("length", base, self.n),
                          block.read_array("next_hop", base, self.n),
                          block.read_array("via_ixp", base, self.n),
                          compiled)

    @property
    def nbytes(self) -> int:
        return self._block.nbytes

    def close(self) -> None:
        """Release and unlink the segment (idempotent; parent only)."""
        self._block.close()

    def __enter__(self) -> "SharedTableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
