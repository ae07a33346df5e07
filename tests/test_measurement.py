"""Measurement layer: probes, traceroute/ping, geolocation, detection."""

import pytest

from repro.datasets import probe_target_ip
from repro.geo import Region
from repro.measurement import (
    AccessTech,
    GeolocationService,
    IXPDirectory,
    IXPDirectoryEntry,
    MeasurementEngine,
    ProbeKind,
    build_atlas_platform,
    build_observatory_platform,
    detect_ixp_crossings,
    slash24s_of,
    traverses_ixp,
)
from repro.measurement.responsiveness import DEFAULT_RESPONSE_MODEL
from repro.topology import ASKind, Prefix


class TestPlatforms:
    def test_atlas_bias_toward_mature_markets(self, topo, atlas):
        per_as = {}
        for region in Region:
            ases = [a for a in topo.ases_in_region(region)
                    if a.kind.is_eyeball or a.kind is ASKind.EDUCATION]
            probes = atlas.in_region(region)
            if ases:
                per_as[region] = len(probes) / len(ases)
        assert per_as[Region.EUROPE] > per_as[Region.WESTERN_AFRICA]
        assert per_as[Region.EUROPE] > per_as[Region.CENTRAL_AFRICA]

    def test_atlas_underrepresents_mobile(self, topo, atlas):
        african = [p for p in atlas.probes if p.region.is_african]
        mobile_share = sum(p.is_mobile for p in african) / len(african)
        population_share = 0.8  # §7.1: mobile dominates last mile
        assert mobile_share < population_share / 2

    def test_atlas_determinism(self, topo):
        a = build_atlas_platform(topo)
        b = build_atlas_platform(topo)
        assert [p.probe_id for p in a.probes] == \
            [p.probe_id for p in b.probes]
        assert [p.asn for p in a.probes] == [p.asn for p in b.probes]

    def test_observatory_dual_uplink(self, topo):
        platform = build_observatory_platform(topo, [36924])
        probe = platform.probes[0]
        assert probe.kind is ProbeKind.RASPBERRY_PI
        assert AccessTech.CELLULAR in probe.uplinks()

    def test_observatory_mobile_hosts_get_handsets(self, topo):
        mobile_asn = next(a.asn for a in topo.african_ases()
                          if a.kind is ASKind.MOBILE)
        platform = build_observatory_platform(topo, [mobile_asn])
        assert platform.probes[0].kind is ProbeKind.MOBILE_HANDSET


class TestTraceroute:
    def test_reaches_target(self, topo, engine, atlas):
        african = [p for p in atlas.probes if p.region.is_african]
        src = african[0]
        dst = african[-1]
        target = probe_target_ip(topo, dst)
        trace = engine.traceroute(src, target)
        assert trace.dst_asn == dst.asn
        assert trace.hops
        assert trace.hops[0].asn == src.asn

    def test_rtts_cumulative(self, topo, engine, atlas):
        african = [p for p in atlas.probes if p.region.is_african]
        target = probe_target_ip(topo, african[-1])
        trace = engine.traceroute(african[0], target)
        rtts = [h.rtt_ms for h in trace.hops if h.rtt_ms is not None]
        if len(rtts) >= 2:
            # Jitter aside, later hops are slower than the first one.
            assert rtts[-1] + 10 > rtts[0]

    def test_hop_ips_belong_to_hop_as_or_fabric(self, topo, engine,
                                                atlas):
        african = [p for p in atlas.probes if p.region.is_african]
        for src in african[:4]:
            target = probe_target_ip(topo, african[-1])
            trace = engine.traceroute(src, target)
            for hop in trace.responding_hops():
                owner = topo.as_for_ip(hop.ip)
                ixp = topo.ixp_for_ip(hop.ip)
                assert owner is not None or ixp is not None

    def test_unroutable_target(self, engine, atlas):
        trace = engine.traceroute(atlas.probes[0],
                                  Prefix.parse("240.0.0.0/24").network)
        assert not trace.reached and trace.dst_asn is None

    def test_bytes_accounted(self, topo, engine, atlas):
        target = probe_target_ip(topo, atlas.probes[-1])
        trace = engine.traceroute(atlas.probes[0], target)
        assert trace.bytes_used > 0

    def test_ping(self, topo, engine, atlas):
        african = [p for p in atlas.probes if p.region.is_african]
        target = probe_target_ip(topo, african[-1])
        result = engine.ping(african[0], target, count=8)
        assert 0 <= result.received <= 8
        if result.received:
            assert result.rtt_ms > 0
            assert result.loss_rate < 1.0

    def test_ping_bytes_scale_with_count(self, topo, engine, atlas):
        """Regression: ping once billed a fixed 4 packets regardless of
        ``count``, undercounting wire bytes in the budget model."""
        from repro.measurement import PING_BYTES_PER_PACKET
        african = [p for p in atlas.probes if p.region.is_african]
        target = probe_target_ip(topo, african[-1])
        for count in (1, 4, 16):
            result = engine.ping(african[0], target, count=count)
            assert result.bytes_used == count * PING_BYTES_PER_PACKET
        # Unroutable and unresolved pings still put packets on the wire.
        lost = engine.ping(african[0],
                           Prefix.parse("240.0.0.0/24").network, count=3)
        assert lost.bytes_used == 3 * PING_BYTES_PER_PACKET

    def test_ping_rejects_nonpositive_count(self, topo, engine, atlas):
        target = probe_target_ip(topo, atlas.probes[-1])
        with pytest.raises(ValueError):
            engine.ping(atlas.probes[0], target, count=0)

    def test_ping_feeds_wire_byte_counter(self, topo, engine, atlas):
        from repro import telemetry
        from repro.measurement import PING_BYTES_PER_PACKET
        target = probe_target_ip(topo, atlas.probes[-1])
        was = telemetry.enabled()
        telemetry.enable()
        try:
            metric = telemetry.REGISTRY.get(
                "repro_measurement_wire_bytes_total")
            before = metric.value
            engine.ping(atlas.probes[0], target, count=5)
            assert metric.value - before == 5 * PING_BYTES_PER_PACKET
        finally:
            if not was:
                telemetry.disable()


class TestTargetResolution:
    def test_fabric_roundtrip_every_member(self, topo, engine):
        """``resolve_target_asn`` must invert ``IXP.lan_ip_for`` for
        every member of every fabric (smallest ASN on collisions,
        matching the sorted assignment order)."""
        for ixp in topo.ixps.values():
            claimed: dict[int, int] = {}
            for member in sorted(ixp.members):
                claimed.setdefault(ixp.lan_ip_for(member), member)
            for member in sorted(ixp.members):
                ip = ixp.lan_ip_for(member)
                assert engine.resolve_target_asn(ip) == claimed[ip]

    def test_unassigned_fabric_ip_resolves_to_none(self, topo, engine):
        ixp = max(topo.ixps.values(), key=lambda x: len(x.members))
        assigned = {ixp.lan_ip_for(m) for m in ixp.members}
        lan = ixp.lan_prefix
        free = next(ip for ip in range(lan.network + 1,
                                       lan.network + lan.size - 1)
                    if ip not in assigned)
        assert engine.resolve_target_asn(free) is None


class TestGeolocation:
    def test_deterministic(self, topo):
        geo = GeolocationService(topo)
        a = topo.african_ases()[0]
        ip = a.prefixes[0].network + 9
        assert geo.locate(ip).iso2 == geo.locate(ip).iso2

    def test_africa_error_rate_calibrated(self, topo):
        geo = GeolocationService(topo)
        correct = total = 0
        for a in topo.african_ases():
            for i in range(3):
                ip = a.prefixes[0].network + 100 + i
                answer = geo.locate(ip)
                total += 1
                correct += answer.correct
        # Nominal accuracy is 0.72, but "operator HQ" mislocations are
        # no-ops for single-country stubs, so the effective rate is a
        # bit higher.
        assert 0.65 < correct / total < 0.92

    def test_reference_more_accurate(self, topo):
        geo = GeolocationService(topo)
        scores = {}
        for is_african in (True, False):
            ases = [a for a in topo.ases.values()
                    if a.is_african == is_african]
            correct = total = 0
            for a in ases:
                ip = a.prefixes[0].network + 50
                total += 1
                correct += geo.locate(ip).correct
            scores[is_african] = correct / total
        assert scores[False] > scores[True]

    def test_unknown_space(self, topo):
        geo = GeolocationService(topo)
        answer = geo.locate(Prefix.parse("240.0.0.0/24").network)
        assert answer.iso2 is None


class TestIXPDetection:
    def test_detects_fabric_hop(self, topo, engine, atlas):
        directory = IXPDirectory(entries=[
            IXPDirectoryEntry(x.ixp_id, x.name, x.country_iso2,
                              x.lan_prefix)
            for x in topo.ixps.values()])
        found = 0
        african = [p for p in atlas.probes if p.region.is_african]
        for src in african[:15]:
            for dst in african[:15]:
                if src.asn == dst.asn:
                    continue
                trace = engine.traceroute(src, probe_target_ip(topo, dst))
                crossings = detect_ixp_crossings(trace, directory)
                for crossing in crossings:
                    assert directory.lookup(crossing.fabric_ip) is not None
                found += bool(crossings)
        assert found > 0

    def test_empty_directory_detects_nothing(self, topo, engine, atlas):
        directory = IXPDirectory()
        african = [p for p in atlas.probes if p.region.is_african]
        trace = engine.traceroute(african[0],
                                  probe_target_ip(topo, african[1]))
        assert not traverses_ixp(trace, directory)


class TestResponsiveness:
    def test_slash24s(self, topo):
        a = topo.african_ases()[0]
        expected = sum(p.slash24_count() for p in a.prefixes)
        assert slash24s_of(topo, a.asn) == expected

    def test_harvested_beats_random(self, topo):
        model = DEFAULT_RESPONSE_MODEL
        for a in topo.african_ases()[:20]:
            assert model.harvested(topo, a.asn) > model.random(topo, a.asn)


class TestPathCache:
    """traceroute and ping resolve each (probe AS, target) pair once,
    through the routing engine's ``PathCache``; every result must equal
    what an engine with a cold cache measures."""

    @staticmethod
    def _targets(topo, atlas):
        african = [p for p in atlas.probes if p.region.is_african]
        targets = [probe_target_ip(topo, p) for p in african[-6:]]
        ixp = max(topo.ixps.values(), key=lambda x: len(x.members))
        assigned = {ixp.lan_ip_for(m) for m in ixp.members}
        free = next(ip for ip in range(ixp.lan_prefix.network + 1,
                                       ixp.lan_prefix.network
                                       + ixp.lan_prefix.size - 1)
                    if ip not in assigned)
        targets += [
            ixp.lan_ip_for(min(ixp.members)),         # IXP-LAN member
            free,                                     # unresolved fabric
            Prefix.parse("240.0.0.0/24").network,     # unresolved
        ]
        return african[:5], targets

    @staticmethod
    def _measure(engine, probes, targets):
        return [(engine.traceroute(p, t), engine.ping(p, t, count=6))
                for p in probes for t in targets]

    @staticmethod
    def _cold(topo, phys, routing=None, **kwargs):
        from repro.routing import BGPRouting
        return MeasurementEngine(topo, routing or BGPRouting(topo), phys,
                                 **kwargs)

    def test_cached_results_equal_a_cold_engine(self, topo, phys, atlas):
        from repro.routing import BGPRouting
        probes, targets = self._targets(topo, atlas)
        shared = BGPRouting(topo)
        engine = MeasurementEngine(topo, shared, phys)
        first = self._measure(engine, probes, targets)
        assert len(shared.paths) == len({(p.asn, t) for p in probes
                                         for t in targets})
        # A second engine over the same routing is served from cache.
        again = self._measure(MeasurementEngine(topo, shared, phys),
                              probes, targets)
        cold = self._measure(self._cold(topo, phys), probes, targets)
        assert first == cold
        assert again == cold
        outcomes = {(tr.dst_asn is None, tr.reached) for tr, _ in cold}
        assert (True, False) in outcomes and (False, True) in outcomes

    def test_unrouted_target_is_cached_as_unrouted(self, topo, phys,
                                                   atlas):
        from repro.routing import BGPRouting
        probes, targets = self._targets(topo, atlas)
        isolated = topo.as_for_ip(targets[0]).asn
        cut_off = BGPRouting(topo, link_filter=lambda link:
                             isolated not in (link.a, link.b))
        engine = MeasurementEngine(topo, cut_off, phys)
        first = self._measure(engine, probes, targets[:1])
        again = self._measure(engine, probes, targets[:1])
        cold = self._measure(
            self._cold(topo, phys, BGPRouting(
                topo, link_filter=lambda link:
                isolated not in (link.a, link.b))),
            probes, targets[:1])
        assert first == again == cold
        for trace, ping in cold:
            if trace.src_asn != isolated:
                assert trace.dst_asn == isolated and not trace.hops
                assert ping.received == 0

    def test_down_cables_share_the_cache_but_not_the_price(self, topo,
                                                           phys, atlas):
        from repro.outages import march_2024_scenario
        from repro.routing import BGPRouting
        west, _ = march_2024_scenario(topo)
        probes, targets = self._targets(topo, atlas)
        shared = BGPRouting(topo)
        intact = MeasurementEngine(topo, shared, phys)
        cut = MeasurementEngine(topo, shared, phys, down_cables=west)
        # Interleave, so each pair is priced under both cuts in turn.
        for _ in range(2):
            assert self._measure(intact, probes, targets) == \
                self._measure(self._cold(topo, phys), probes, targets)
            assert self._measure(cut, probes, targets) == \
                self._measure(self._cold(topo, phys, down_cables=west),
                              probes, targets)

    def test_repeating_a_pair_resolves_no_further_paths(self, topo, phys,
                                                        atlas,
                                                        monkeypatch):
        from repro.measurement import traceroute as module
        from repro.routing import BGPRouting
        calls = []
        original = module.as_path_geography

        def counting(*args, **kwargs):
            calls.append(args[2:4])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "as_path_geography", counting)
        probes, targets = self._targets(topo, atlas)
        shared = BGPRouting(topo)
        probe, target = probes[0], targets[0]
        engine = MeasurementEngine(topo, shared, phys, seed=1)
        engine.traceroute(probe, target)
        engine.ping(probe, target)
        assert len(calls) == 1
        for seed in (1, 2, 3):  # a fresh engine per round, as the fleet
            engine = MeasurementEngine(topo, shared, phys, seed=seed)
            engine.traceroute(probe, target)
            engine.ping(probe, target)
        assert len(calls) == 1

    def test_lookups_feed_the_hit_and_miss_counters(self, topo, phys,
                                                    atlas):
        from repro import telemetry
        from repro.routing import BGPRouting
        probes, targets = self._targets(topo, atlas)
        metric = telemetry.REGISTRY.get("repro_routing_path_cache_total")
        hit, miss = (metric.labels(result=r) for r in ("hit", "miss"))
        was = telemetry.enabled()
        telemetry.enable()
        try:
            before = (hit.value, miss.value)
            engine = MeasurementEngine(topo, BGPRouting(topo), phys)
            engine.traceroute(probes[0], targets[0])
            engine.ping(probes[0], targets[0])
            assert (hit.value - before[0], miss.value - before[1]) == (1, 1)
        finally:
            if not was:
                telemetry.disable()

    def test_cache_never_grows_past_its_bound(self, topo, phys, atlas):
        from repro.routing import BGPRouting
        probes, targets = self._targets(topo, atlas)
        shared = BGPRouting(topo)
        shared.paths.maxsize = 7
        engine = MeasurementEngine(topo, shared, phys)
        measured = []
        for probe in probes:
            for target in targets:
                measured.append((engine.traceroute(probe, target),
                                 engine.ping(probe, target, count=6)))
                assert len(shared.paths) <= 7
        assert len(shared.paths) == 7
        assert measured == self._measure(self._cold(topo, phys), probes,
                                         targets)
        # Re-measuring evicted pairs resolves them again, identically.
        assert self._measure(engine, probes, targets) == measured

    def test_concurrent_engines_share_one_cache(self, topo, phys, atlas):
        import sys
        import threading
        from repro.routing import BGPRouting
        probes, targets = self._targets(topo, atlas)
        want = self._measure(self._cold(topo, phys), probes, targets)
        shared = BGPRouting(topo)
        shared.paths.maxsize = 5      # evict under contention too
        errors: list = []

        def work() -> None:
            try:
                engine = MeasurementEngine(topo, shared, phys)
                for _ in range(3):
                    assert self._measure(engine, probes, targets) == want
                    assert len(shared.paths) <= 5
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
