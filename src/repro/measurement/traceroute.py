"""Traceroute and ping simulation.

Synthesizes IP-level traceroutes over the BGP + physical layers the
same way real paths would look to a measurement probe:

* each AS on the path contributes one or two router hops numbered from
  its own address space,
* an IXP crossing contributes the *member's fabric port address* from
  the exchange's LAN prefix (what traIXroute keys on),
* per-hop RTTs accumulate physical latency plus jitter, and some hops
  silently drop TTL-expired responses,
* cable cuts (``down_cables``) reroute or sever the physical path —
  severed paths fall back to satellite-class latency and heavy loss,
  which is how outage degradation becomes visible to measurement.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.routing import (
    BGPRouting,
    HopSite,
    PhysicalNetwork,
    as_path_geography,
    path_rtt_ms,
)
from repro.routing.latency import (
    FIXED_LAST_MILE_MS,
    INTRA_AS_MS,
    MOBILE_LAST_MILE_MS,
)
from repro.measurement.probes import AccessTech, VantagePoint
from repro.measurement.responsiveness import (
    DEFAULT_RESPONSE_MODEL,
    ResponseModel,
)
from repro.topology import ASKind, Topology, format_ip
from repro.util import derive_rng, derive_seed
from repro import telemetry

_TRACEROUTES = telemetry.counter(
    "repro_measurement_traceroutes_total",
    "Traceroutes synthesized", labels=("outcome",))
# Pre-bound labelled children: one dict hit per traceroute instead of a
# lock-guarded child resolution in the per-measurement hot path.
_TRACEROUTES_BY_OUTCOME = {
    outcome: _TRACEROUTES.labels(outcome=outcome)
    for outcome in ("reached", "incomplete", "unrouted", "unresolved")}
_HOPS = telemetry.counter(
    "repro_measurement_hops_synthesized_total",
    "Traceroute hops synthesized")
_PINGS = telemetry.counter(
    "repro_measurement_pings_total", "Ping rounds issued")
_WIRE_BYTES = telemetry.counter(
    "repro_measurement_wire_bytes_total",
    "Simulated bytes on the wire (budget model input)")
_HOPS_PER_TRACE = telemetry.histogram(
    "repro_measurement_traceroute_hops",
    "Hops per completed traceroute",
    buckets=(2, 4, 6, 8, 10, 14, 18, 24, 32))


@dataclass(frozen=True)
class Hop:
    """One TTL step of a traceroute."""

    ttl: int
    ip: Optional[int]            # None == no reply ("* * *")
    rtt_ms: Optional[float]
    asn: Optional[int]           # ground truth (hidden from analyses)
    country_iso2: Optional[str]  # ground truth
    is_ixp_fabric: bool = False
    ixp_id: Optional[int] = None

    @property
    def responded(self) -> bool:
        return self.ip is not None

    def ip_str(self) -> str:
        return format_ip(self.ip) if self.ip is not None else "*"


@dataclass
class TracerouteResult:
    """A completed traceroute measurement."""

    probe_id: int
    src_asn: int
    src_country: str
    target_ip: int
    dst_asn: Optional[int]
    hops: list[Hop] = field(default_factory=list)
    reached: bool = False
    #: Bytes on the wire (for the Observatory budget model).
    bytes_used: int = 0

    def responding_hops(self) -> list[Hop]:
        return [h for h in self.hops if h.responded]

    def hop_ips(self) -> list[int]:
        return [h.ip for h in self.hops if h.ip is not None]

    def end_to_end_rtt(self) -> Optional[float]:
        for hop in reversed(self.hops):
            if hop.rtt_ms is not None:
                return hop.rtt_ms
        return None


@dataclass(frozen=True)
class PingResult:
    probe_id: int
    target_ip: int
    sent: int
    received: int
    rtt_ms: Optional[float]
    #: Bytes on the wire (for the Observatory budget model).
    bytes_used: int = 0

    @property
    def loss_rate(self) -> float:
        return 1.0 - self.received / self.sent if self.sent else 1.0


#: Approximate wire cost of measurements (request+responses, bytes).
TRACEROUTE_BYTES_PER_HOP = 3 * 120
PING_BYTES_PER_PACKET = 84
#: Wire cost of the default 4-packet echo round (legacy constant).
PING_BYTES = 4 * PING_BYTES_PER_PACKET


class ResolvedPath:
    """What one ``(source AS, target address)`` pair resolves to.

    ``dst_asn`` is the target's AS (``None``: unresolved), ``owner_asn``
    the AS announcing the target address (``None`` for IXP fabric
    addresses) and ``sites`` the hop geography (``None``: no route).
    None of it uses randomness, so traceroute and ping share one
    resolution per pair through the routing engine's
    :class:`~repro.routing.PathCache`.
    """

    __slots__ = ("dst_asn", "owner_asn", "sites", "priced")

    def __init__(self, dst_asn: Optional[int], owner_asn: Optional[int],
                 sites: Optional[tuple[HopSite, ...]]) -> None:
        self.dst_asn = dst_asn
        self.owner_asn = owner_asn
        self.sites = sites
        #: ``(phys, down_cables, rtt_ms)`` of the last pricing by ping.
        self.priced: Optional[tuple] = None


@functools.lru_cache(maxsize=8192)
def _loopback_offset(asn: int, iso2: str) -> int:
    """Offset of an AS's router loopback in its first prefix, varied
    per country so multi-PoP ASes differ.  Derived via sha256, not
    builtin hash(), which is salted per process (PYTHONHASHSEED)."""
    return 1 + derive_seed(asn, iso2) % 240


class MeasurementEngine:
    """Issues simulated measurements from vantage points.

    Every measurement derives its own RNG from the engine seed and the
    measurement's identity ``(probe, target)``, never from a shared
    stream, so measurements are order-independent: a batch fanned out
    over :mod:`repro.exec` workers is byte-identical to the same batch
    run serially.

    What a pair resolves to uses no randomness (:class:`ResolvedPath`),
    so it is kept in the routing engine's path cache and shared by
    every engine built over that routing engine.
    """

    def __init__(self, topo: Topology, routing: BGPRouting,
                 phys: PhysicalNetwork,
                 response_model: ResponseModel = DEFAULT_RESPONSE_MODEL,
                 down_cables: Sequence[int] = (),
                 seed: Optional[int] = None) -> None:
        self._topo = topo
        self._routing = routing
        self._phys = phys
        self._model = response_model
        self._down = tuple(down_cables)
        self._seed = seed if seed is not None else topo.params.seed
        #: ixp_id -> (membership size, fabric IP -> member ASN).
        self._fabric_index: dict[int, tuple[int, dict[int, int]]] = {}
        #: Resolved paths, shared by every engine on this routing engine.
        self._paths = routing.paths

    @property
    def routing(self) -> BGPRouting:
        """The underlying routing instance (shared, cache-bearing)."""
        return self._routing

    # ------------------------------------------------------------------
    def resolve_target_asn(self, target_ip: int) -> Optional[int]:
        """Origin AS of a target address (IXP LANs resolve to members).

        For fabric addresses this is the *exact inverse* of
        :meth:`IXP.lan_ip_for`: the member whose assigned fabric port
        is ``target_ip`` (smallest ASN on a modulo collision, matching
        the deterministic assignment order).  Addresses on the LAN that
        belong to no member resolve to ``None``.
        """
        a = self._topo.as_for_ip(target_ip)
        if a is not None:
            return a.asn
        return self._fabric_member(target_ip)

    def _fabric_member(self, target_ip: int) -> Optional[int]:
        ixp = self._topo.ixp_for_ip(target_ip)
        if ixp is not None and ixp.members:
            cached = self._fabric_index.get(ixp.ixp_id)
            if cached is None or cached[0] != len(ixp.members):
                table: dict[int, int] = {}
                for member in sorted(ixp.members):
                    table.setdefault(ixp.lan_ip_for(member), member)
                cached = (len(ixp.members), table)
                self._fabric_index[ixp.ixp_id] = cached
            return cached[1].get(target_ip)
        return None

    def _resolve(self, src_asn: int, target_ip: int) -> ResolvedPath:
        """The pair's :class:`ResolvedPath`: one cache lookup, and on a
        miss one resolution that both traceroute and ping reuse."""
        key = (src_asn, target_ip)
        path = self._paths.get(key)
        if path is None:
            owner = self._topo.as_for_ip(target_ip)
            owner_asn = owner.asn if owner is not None else None
            dst_asn = (owner_asn if owner_asn is not None
                       else self._fabric_member(target_ip))
            sites = None
            if dst_asn is not None:
                found = as_path_geography(self._topo, self._routing,
                                          src_asn, dst_asn)
                sites = tuple(found) if found is not None else None
            path = ResolvedPath(dst_asn, owner_asn, sites)
            self._paths.put(key, path)
        return path

    # ------------------------------------------------------------------
    def traceroute(self, probe: VantagePoint, target_ip: int,
                   access: Optional[AccessTech] = None
                   ) -> TracerouteResult:
        """Run one traceroute from ``probe`` toward ``target_ip``."""
        path = self._resolve(probe.asn, target_ip)
        result = TracerouteResult(
            probe_id=probe.probe_id, src_asn=probe.asn,
            src_country=probe.country_iso2, target_ip=target_ip,
            dst_asn=path.dst_asn)
        if path.dst_asn is None:
            result.bytes_used = 5 * TRACEROUTE_BYTES_PER_HOP
            self._record_traceroute(result, "unresolved")
            return result
        if path.sites is None:
            result.bytes_used = 5 * TRACEROUTE_BYTES_PER_HOP
            self._record_traceroute(result, "unrouted")
            return result
        access = access or probe.access
        rng = self._measurement_rng("trace", probe.probe_id, target_ip)
        self._emit_hops(result, path, target_ip, access, rng)
        result.bytes_used = len(result.hops) * TRACEROUTE_BYTES_PER_HOP
        self._record_traceroute(
            result, "reached" if result.reached else "incomplete")
        return result

    def _measurement_rng(self, kind: str, probe_id: int,
                         target_ip: int) -> random.Random:
        """Per-measurement RNG: a pure function of (seed, probe,
        target), independent of every other measurement."""
        return derive_rng(self._seed, "measurement", kind,
                          str(probe_id), str(target_ip))

    @staticmethod
    def _record_traceroute(result: TracerouteResult,
                           outcome: str) -> None:
        if not telemetry.enabled():
            return
        _TRACEROUTES_BY_OUTCOME[outcome].inc()
        _WIRE_BYTES.inc(result.bytes_used)
        if result.hops:
            _HOPS.inc(len(result.hops))
            _HOPS_PER_TRACE.observe(len(result.hops))

    def _emit_hops(self, result: TracerouteResult, path: ResolvedPath,
                   target_ip: int, access: AccessTech,
                   rng: random.Random) -> None:
        sites = path.sites
        cumulative = (MOBILE_LAST_MILE_MS
                      if access is AccessTech.CELLULAR
                      else FIXED_LAST_MILE_MS)
        severed = False
        ttl = 0
        prev_cc = sites[0].country_iso2
        for idx, site in enumerate(sites):
            ttl += 1
            cumulative += INTRA_AS_MS
            if site.country_iso2 != prev_cc:
                route = self._phys.route(prev_cc, site.country_iso2,
                                         down_cables=self._down)
                if route is None:
                    severed = True
                else:
                    cumulative += route.rtt_ms
                    if route.uses_satellite:
                        # Oversubscribed fallback: high loss, jitter.
                        severed = rng.random() < 0.5
            else:
                cumulative += 1.0
            prev_cc = site.country_iso2
            if severed:
                result.hops.append(Hop(ttl, None, None, site.asn,
                                       site.country_iso2))
                continue
            is_last = idx == len(sites) - 1
            hop_ip, responds = self._hop_address(
                site, target_ip, is_last and path.owner_asn == site.asn,
                rng)
            if not responds:
                result.hops.append(Hop(ttl, None, None, site.asn,
                                       site.country_iso2,
                                       is_ixp_fabric=site.is_ixp,
                                       ixp_id=site.ixp_id))
                continue
            rtt = max(0.5, cumulative + rng.gauss(0.0, 2.0))
            result.hops.append(Hop(ttl, hop_ip, rtt, site.asn,
                                   site.country_iso2,
                                   is_ixp_fabric=site.is_ixp,
                                   ixp_id=site.ixp_id))
            if is_last:
                result.reached = True

    def _hop_address(self, site: HopSite, target_ip: int,
                     owns_target: bool, rng: random.Random
                     ) -> tuple[Optional[int], bool]:
        topo = self._topo
        if site.is_ixp and site.ixp_id is not None:
            ixp = topo.ixps[site.ixp_id]
            try:
                ip = ixp.lan_ip_for(site.asn)
            except ValueError:
                return None, False
            return ip, rng.random() < self._model.hop_response
        if owns_target:
            # Destination probe-response: the target address itself.
            return target_ip, rng.random() < self._model.hop_response
        a = topo.as_(site.asn)
        # Routers of *transit* exchange members often answer from their
        # fabric port address when it is the preferred source on the
        # reverse path — the classic way traIXroute spots carriers at
        # IXPs even on customer-bound traffic.  Stub routers answer
        # from their own space.
        for ixp_id in sorted(a.ixps if a.tier <= 2 else ()):
            ixp = topo.ixps.get(ixp_id)
            if ixp is None or ixp.country_iso2 != site.country_iso2:
                continue
            if rng.random() < 0.3:
                try:
                    ip = ixp.lan_ip_for(site.asn)
                except ValueError:
                    break
                return ip, rng.random() < self._model.hop_response
            break
        if not a.prefixes:
            return None, False
        # Deterministic router loopback: low addresses of the first
        # prefix.
        ip = a.prefixes[0].network + _loopback_offset(site.asn,
                                                      site.country_iso2)
        return ip, rng.random() < self._model.hop_response

    # ------------------------------------------------------------------
    def ping(self, probe: VantagePoint, target_ip: int,
             count: int = 4) -> PingResult:
        """ICMP echo round: loss and median RTT.

        Wire-byte accounting scales with ``count``: every echo request
        goes on the wire whether or not the target resolves or
        responds — exactly what a metered data plan bills for.
        """
        if count <= 0:
            raise ValueError(f"ping count must be positive, got {count}")
        nbytes = count * PING_BYTES_PER_PACKET
        path = self._resolve(probe.asn, target_ip)
        # Unresolved and unrouted targets have no sites.
        base = self._path_rtt(path) if path.sites is not None else None
        if base is None:
            return self._record_ping(PingResult(
                probe.probe_id, target_ip, count, 0, None,
                bytes_used=nbytes))
        rng = self._measurement_rng("ping", probe.probe_id, target_ip)
        respond_p = self._model.hop_response
        received = sum(rng.random() < respond_p for _ in range(count))
        rtt = (max(0.5, base + rng.gauss(0.0, 1.5))
               if received else None)
        return self._record_ping(PingResult(
            probe.probe_id, target_ip, count, received, rtt,
            bytes_used=nbytes))

    def _path_rtt(self, path: ResolvedPath) -> Optional[float]:
        """``path_rtt_ms`` of the path over this engine's physical
        network and cuts, reused while those stay the same."""
        priced = path.priced
        if priced is not None and priced[0] is self._phys \
                and priced[1] == self._down:
            return priced[2]
        rtt = path_rtt_ms(self._topo, self._phys, path.sites,
                          down_cables=self._down)
        path.priced = (self._phys, self._down, rtt)
        return rtt

    @staticmethod
    def _record_ping(result: PingResult) -> PingResult:
        if telemetry.enabled():
            _PINGS.inc()
            _WIRE_BYTES.inc(result.bytes_used)
        return result
