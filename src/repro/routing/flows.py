"""Max-flow connectivity analysis over the physical layer.

The outage engine scores cable-cut severity with a lit-traffic-weight
heuristic (fast enough to run inside event loops).  This module is the
principled cross-check: a country's usable international capacity is
the *maximum flow* it can push to the global core (EU/US hubs) over the
surviving cable segments and terrestrial links.  The ablation benchmark
compares the two severity estimates.

networkx is imported where max-flow runs, not at module import: every
process that routes imports :mod:`repro.routing`, and only this
analyzer needs networkx.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.routing.physical import PhysicalNetwork
from repro.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

#: The global core the flow must reach (transit/hosting hubs).
CORE_COUNTRIES = ("DE", "GB", "FR", "NL", "US")
#: Capacity of the virtual core super-sink edges (effectively infinite).
CORE_EDGE_TBPS = 10_000.0
_SINK = "__core__"


class FlowAnalyzer:
    """Max-flow computations over the country-level physical graph."""

    def __init__(self, topo: Topology,
                 phys: Optional[PhysicalNetwork] = None) -> None:
        self._topo = topo
        self._phys = phys or PhysicalNetwork(topo)
        self._cache: dict[tuple[str, frozenset[int]], float] = {}

    def _graph(self, down_cables: frozenset[int]) -> nx.Graph:
        import networkx as nx
        graph = nx.Graph()
        for iso2 in self._phys.countries():
            for edge in self._phys.edges_at(iso2):
                if edge.medium == "cable" and edge.carrier_id in down_cables:
                    continue
                if edge.medium == "satellite":
                    continue
                key = (edge.a, edge.b)
                prior = graph.get_edge_data(*key, default=None)
                capacity = edge.capacity_tbps
                if prior is not None:
                    capacity += prior["capacity"]
                graph.add_edge(edge.a, edge.b, capacity=capacity)
        for core in CORE_COUNTRIES:
            if graph.has_node(core):
                graph.add_edge(core, _SINK, capacity=CORE_EDGE_TBPS)
        return graph

    def capacity_to_core(self, iso2: str,
                         down_cables: Iterable[int] = ()) -> float:
        """Max flow (Tbps) from a country to the global core."""
        down = frozenset(down_cables)
        key = (iso2, down)
        if key in self._cache:
            return self._cache[key]
        graph = self._graph(down)
        if iso2 not in graph or _SINK not in graph:
            self._cache[key] = 0.0
            return 0.0
        import networkx as nx
        value, _ = nx.maximum_flow(graph, iso2, _SINK,
                                   capacity="capacity")
        self._cache[key] = value
        return value

    def flow_severity(self, iso2: str,
                      down_cables: Iterable[int]) -> float:
        """Severity as the fractional loss of max flow to the core."""
        before = self.capacity_to_core(iso2)
        if before <= 0:
            return 0.0
        after = self.capacity_to_core(iso2, down_cables)
        return max(0.0, min(1.0, 1.0 - after / before))

    def is_disconnected(self, iso2: str,
                        down_cables: Iterable[int]) -> bool:
        """True when no fiber path to the core survives at all."""
        return self.capacity_to_core(iso2, down_cables) <= 0.0
