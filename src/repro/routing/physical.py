"""Physical-layer network: subsea cable segments + terrestrial fiber.

The AS-level graph says *who* exchanges traffic; this layer says *over
what glass*.  It is the substrate for:

* latency modelling (traceroute RTT synthesis),
* cable-cut impact (which country pairs lose connectivity/capacity and
  whether backups exist — §5.1),
* Nautilus-style cable inference and its ambiguity (§6.2): multiple
  cables along the same corridor are candidates for one wet IP link.

Countries are the nodes; each active cable segment and terrestrial link
is a parallel edge.  Routing is Dijkstra on latency.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.geo import country, fiber_rtt_ms, haversine_km
from repro.topology import Topology

#: Terrestrial routes are more circuitous than subsea ones.
SUBSEA_INFLATION = 1.15
TERRESTRIAL_INFLATION = 1.7
#: Fixed per-edge equipment delay (ms, round trip).
EDGE_OVERHEAD_MS = 0.8
#: Satellite fallback (§2: "non-terrestrial routes, e.g. ... satellite
#: links"): always available, but at GEO latency and trivial capacity.
SATELLITE_RTT_MS = 550.0
SATELLITE_CAPACITY_TBPS = 0.005

#: Shared cache key for the (overwhelmingly common) intact network —
#: saves a frozenset build per ``route()`` call on the hot path.
_NO_CABLES_DOWN: frozenset[int] = frozenset()


@dataclass(frozen=True)
class PhysicalEdge:
    """One parallel edge of the country-level multigraph."""

    a: str
    b: str
    medium: str               # "cable" | "terrestrial" | "satellite"
    carrier_id: int           # cable_id, or -1 for terrestrial/satellite
    carrier_name: str
    rtt_ms: float
    capacity_tbps: float

    def other(self, iso2: str) -> str:
        return self.b if iso2 == self.a else self.a


@dataclass(frozen=True)
class PhysicalRoute:
    """A physical path between two countries."""

    src: str
    dst: str
    edges: tuple[PhysicalEdge, ...]
    rtt_ms: float
    #: Whether any edge is the satellite fallback.  Set once here:
    #: traceroute synthesis reads it on every country change.
    uses_satellite: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "uses_satellite", any(
            e.medium == "satellite" for e in self.edges))

    @property
    def cables_used(self) -> set[int]:
        return {e.carrier_id for e in self.edges if e.medium == "cable"}

    @property
    def bottleneck_tbps(self) -> float:
        return min((e.capacity_tbps for e in self.edges), default=0.0)


class PhysicalNetwork:
    """Country-level multigraph of cables and terrestrial fiber."""

    def __init__(self, topo: Topology, year: Optional[int] = None,
                 enable_satellite: bool = True) -> None:
        self._topo = topo
        self._year = year if year is not None else topo.params.current_year
        self._enable_satellite = enable_satellite
        self._edges: dict[str, list[PhysicalEdge]] = {}
        self._build()
        self._route_cache: dict[tuple, Optional[PhysicalRoute]] = {}

    def _add(self, edge: PhysicalEdge) -> None:
        self._edges.setdefault(edge.a, []).append(edge)
        self._edges.setdefault(edge.b, []).append(edge)

    def _build(self) -> None:
        for cable in self._topo.active_cables(self._year):
            for seg in cable.segments():
                if seg.a.iso2 == seg.b.iso2:
                    continue
                rtt = fiber_rtt_ms(seg.length_km, SUBSEA_INFLATION,
                                   EDGE_OVERHEAD_MS)
                self._add(PhysicalEdge(seg.a.iso2, seg.b.iso2, "cable",
                                       cable.cable_id, cable.name, rtt,
                                       cable.capacity_tbps))
        for link in self._topo.terrestrial:
            if link.built_year > self._year:
                continue
            rtt = fiber_rtt_ms(link.length_km, TERRESTRIAL_INFLATION,
                               EDGE_OVERHEAD_MS * 2)
            self._add(PhysicalEdge(link.a, link.b, "terrestrial", -1,
                                   f"terrestrial:{link.a}-{link.b}", rtt,
                                   0.4 * link.quality))

    # ------------------------------------------------------------------
    def countries(self) -> set[str]:
        return set(self._edges)

    def edges_at(self, iso2: str) -> list[PhysicalEdge]:
        return list(self._edges.get(iso2, []))

    def route(self, src: str, dst: str,
              down_cables: Iterable[int] = (),
              avoid_satellite: bool = False) -> Optional[PhysicalRoute]:
        """Lowest-latency physical route, skipping failed cables.

        Falls back to a satellite hop when fiber is unavailable (unless
        ``avoid_satellite``); returns ``None`` only when nothing at all
        connects the two countries.

        Like ``BGPRouting`` tables, results are memoized per query key;
        unlike the AS layer there is no compiled form — the country
        multigraph is small and cut state is per-query, which is why
        one ``PhysicalNetwork`` serves every cut world of a topology
        (see ``repro.exec.RoutingContext``).
        """
        if src == dst:
            return PhysicalRoute(src, dst, (), 0.0)
        down = frozenset(down_cables) if down_cables else _NO_CABLES_DOWN
        key = (src, dst, down, avoid_satellite)
        if key in self._route_cache:
            return self._route_cache[key]
        result = self._dijkstra(src, dst, down)
        if result is None and self._enable_satellite and not avoid_satellite:
            result = PhysicalRoute(src, dst, (PhysicalEdge(
                src, dst, "satellite", -1, "satellite", SATELLITE_RTT_MS,
                SATELLITE_CAPACITY_TBPS),), SATELLITE_RTT_MS)
        self._route_cache[key] = result
        return result

    def _dijkstra(self, src: str, dst: str,
                  down: frozenset[int]) -> Optional[PhysicalRoute]:
        dist: dict[str, float] = {src: 0.0}
        prev: dict[str, PhysicalEdge] = {}
        heap: list[tuple[float, str]] = [(0.0, src)]
        visited: set[str] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for edge in self._edges.get(node, []):
                if edge.medium == "cable" and edge.carrier_id in down:
                    continue
                other = edge.other(node)
                nd = d + edge.rtt_ms
                if nd < dist.get(other, float("inf")):
                    dist[other] = nd
                    prev[other] = edge
                    heapq.heappush(heap, (nd, other))
        if dst not in prev and dst != src:
            return None
        edges: list[PhysicalEdge] = []
        cursor = dst
        while cursor != src:
            edge = prev[cursor]
            edges.append(edge)
            cursor = edge.other(cursor)
        edges.reverse()
        return PhysicalRoute(src, dst, tuple(edges), dist[dst])

    # ------------------------------------------------------------------
    def candidate_cables(self, src: str, dst: str,
                         slack_ms: float = 25.0) -> set[int]:
        """All cables appearing on near-optimal routes src→dst.

        This is what makes passive cable inference ambiguous (§6.2): a
        wet IP link between two countries is compatible with *every*
        cable on any route within ``slack_ms`` of the best one.
        """
        best = self.route(src, dst, avoid_satellite=True)
        if best is None:
            return set()
        budget = best.rtt_ms + slack_ms
        candidates: set[int] = set(best.cables_used)
        # Re-run the search excluding each used cable; any alternative
        # within budget contributes its cables too.
        frontier = list(best.cables_used)
        seen_exclusions: set[frozenset[int]] = set()
        while frontier:
            cable_id = frontier.pop()
            exclusion = frozenset([cable_id])
            if exclusion in seen_exclusions:
                continue
            seen_exclusions.add(exclusion)
            alt = self.route(src, dst, down_cables=exclusion,
                             avoid_satellite=True)
            if alt is None or alt.rtt_ms > budget:
                continue
            for c in alt.cables_used:
                if c not in candidates:
                    candidates.add(c)
                    frontier.append(c)
        return candidates

    def direct_cables(self, cc_a: str, cc_b: str) -> set[int]:
        """Cables with *adjacent landings* in the two countries.

        This is the unambiguous case for cable inference: the wet IP
        link corresponds to one hop of a specific system's landing
        chain.
        """
        out = set()
        for edge in self._edges.get(cc_a, []):
            if edge.medium == "cable" and edge.other(cc_a) == cc_b:
                out.add(edge.carrier_id)
        return out

    def country_cable_dependencies(self, iso2: str) -> set[int]:
        """Cables with a landing in ``iso2`` (first-order dependency)."""
        return {c.cable_id for c in self._topo.cables_landing_in(
            iso2, self._year)}

    def international_capacity(self, iso2: str,
                               down_cables: Iterable[int] = ()) -> float:
        """Total working international capacity (Tbps) of a country."""
        down = set(down_cables)
        total = 0.0
        for edge in self._edges.get(iso2, []):
            if edge.medium == "cable" and edge.carrier_id in down:
                continue
            total += edge.capacity_tbps
        return total

    def international_traffic_weight(self, iso2: str,
                                     down_cables: Iterable[int] = ()
                                     ) -> float:
        """Working *lit-traffic* weight of a country's international links.

        Uses :meth:`SubseaCable.traffic_weight` (capacity damped by how
        long the system has been in service) plus a modest terrestrial
        contribution — the denominator for cable-cut severity.
        """
        down = set(down_cables)
        total = 0.0
        for cable in self._topo.cables_landing_in(iso2, self._year):
            if cable.cable_id in down:
                continue
            total += cable.traffic_weight(self._year)
        for link in self._topo.terrestrial:
            if link.built_year <= self._year and link.involves(iso2):
                total += 0.5 * link.quality
        return total
