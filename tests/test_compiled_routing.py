"""Equivalence and behavior tests for the compiled routing core.

The compiled engine (:class:`BGPRouting` over ``CompiledTopology`` CSR
arrays) must be observationally identical to the retained pure-dict
:class:`ReferenceRouting` oracle — same ``RouteEntry`` tuples, same
paths, same reachable sets, same tie-breaks — across topology families
and seeds.  On top of that: the array ``RouteTable`` must behave like
the mapping it replaced, serial and parallel ``precompute`` must agree
on the array representation (and a host without shared memory must
fall back to the serial loop), and ``DeltaRouting`` must match a full
recompute for every what-if scenario type.
"""

from __future__ import annotations

import random

import pytest

from test_random_topologies import _random_topology

import repro.exec
import repro.exec.pool
from repro.exec import RoutingContext, fork_available
from repro.routing import (
    BGPRouting,
    CompiledTopology,
    DeltaRouting,
    ReferenceRouting,
    RouteEntry,
    RouteKind,
    RouteTable,
    is_valley_free,
)
from repro.observatory import (
    WhatIfAddCable,
    WhatIfLocalizeDNS,
    WhatIfMandateLocalPeering,
    touched_ases,
)
from repro.topology import ASLink, Relationship

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")


def _assert_engines_agree(topo, sample_pairs: int = 40,
                          seed: int = 0) -> None:
    ref = ReferenceRouting(topo)
    new = BGPRouting(topo)
    asns = sorted(topo.ases)
    for dst in asns:
        ref_table = ref.routes_to(dst)
        new_table = new.routes_to(dst)
        # Mapping equality both ways (dict.__eq__ defers to the
        # RouteTable's reflected __eq__), plus an explicit entry check.
        assert new_table == ref_table
        assert new_table.to_dict() == ref_table
        assert new.reachable_from(dst) == ref.reachable_from(dst)
    rng = random.Random(seed)
    for _ in range(sample_pairs):
        src, dst = rng.choice(asns), rng.choice(asns)
        assert new.path(src, dst) == ref.path(src, dst)
        assert new.path_links(src, dst) == ref.path_links(src, dst)


class TestCompiledMatchesReference:
    @pytest.mark.parametrize("seed", [7, 11, 99])
    def test_random_topologies(self, seed):
        _assert_engines_agree(_random_topology(36, seed), seed=seed)

    def test_session_world_sample(self, topo):
        ref = ReferenceRouting(topo)
        new = BGPRouting(topo)
        asns = sorted(topo.ases)
        rng = random.Random(2025)
        for dst in rng.sample(asns, 25):
            assert new.routes_to(dst) == ref.routes_to(dst)
            assert new.reachable_from(dst) == ref.reachable_from(dst)
            for src in rng.sample(asns, 5):
                assert new.path(src, dst) == ref.path(src, dst)
                assert new.path_links(src, dst) == ref.path_links(src, dst)

    def test_unknown_destination_raises(self, topo):
        new = BGPRouting(topo)
        with pytest.raises(KeyError):
            new.routes_to(999_999_999)
        with pytest.raises(KeyError):
            new.path_links(sorted(topo.ases)[0], 999_999_999)


class TestRouteTableView:
    def test_mapping_behavior(self, topo):
        routing = BGPRouting(topo)
        dst = sorted(topo.ases)[0]
        table = routing.routes_to(dst)
        assert isinstance(table, RouteTable)
        assert dst in table
        assert table[dst] == RouteEntry(RouteKind.SELF, 0, dst)
        assert table.get(999_999_999) is None
        assert 999_999_999 not in table
        with pytest.raises(KeyError):
            table[999_999_999]
        routed = list(table)
        assert routed == sorted(routed)
        assert len(table) == len(routed)
        assert set(table.keys()) == set(routed)
        assert dict(table.items()) == table.to_dict()
        assert all(isinstance(e, RouteEntry) for e in table.values())

    @needs_fork
    def test_serial_vs_parallel_precompute_identity(self, topo):
        dests = sorted(topo.ases)[:24]
        serial = BGPRouting(topo)
        parallel = BGPRouting(topo)
        assert serial.precompute(dests, workers=1) == len(dests)
        assert parallel.precompute(dests, workers=4) == len(dests)
        for dst in dests:
            a, b = serial.routes_to(dst), parallel.routes_to(dst)
            # Exact array representation, not just mapping equality.
            assert a.kind == b.kind
            assert a.length == b.length
            assert a.next_hop == b.next_hop
            assert a.via_ixp == b.via_ixp

    def test_precompute_without_shared_memory_runs_serially(
            self, topo, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("precompute started a worker pool")

        monkeypatch.setattr(repro.exec, "shm_supported", lambda: False)
        monkeypatch.setattr(repro.exec.pool, "ProcessPoolExecutor",
                            no_pool)
        dests = sorted(topo.ases)[:24]
        serial = BGPRouting(topo)
        fallback = BGPRouting(topo)
        assert serial.precompute(dests, workers=1) == len(dests)
        assert fallback.precompute(dests, workers=2) == len(dests)
        for dst in dests:
            a, b = serial.routes_to(dst), fallback.routes_to(dst)
            assert (a.kind, a.length, a.next_hop, a.via_ixp) \
                == (b.kind, b.length, b.next_hop, b.via_ixp)


class TestValleyFree:
    def test_rejects_non_adjacent_pairs(self, topo):
        asns = sorted(topo.ases)
        compiled = CompiledTopology.of(topo)
        src = asns[0]
        stranger = next(a for a in asns
                        if a != src and compiled.step_kind(src, a) is None)
        assert topo.link_between(src, stranger) is None
        assert not is_valley_free(topo, [src, stranger])

    def test_accepts_routed_paths(self, topo, routing):
        asns = sorted(topo.ases)
        rng = random.Random(7)
        checked = 0
        while checked < 10:
            path = routing.path(rng.choice(asns), rng.choice(asns))
            if path is None or len(path) < 2:
                continue
            assert is_valley_free(topo, path)
            checked += 1


class TestDeltaRouting:
    def _warm_context(self, topo):
        ctx = RoutingContext()
        ctx.routing(topo)
        return ctx

    def _assert_matches_full(self, engine, modified, dests):
        # Drop the (possibly spliced) compiled cache so the oracle
        # engine compiles the modified world from scratch.
        modified.__dict__.pop("_compiled_topology", None)
        full = BGPRouting(modified)
        for dst in dests:
            assert engine.routes_to(dst) == full.routes_to(dst)
            assert engine.reachable_from(dst) == full.reachable_from(dst)

    def test_mandate_local_peering_partial_dirty(self, topo):
        ctx = self._warm_context(topo)
        modified = WhatIfMandateLocalPeering(topo).apply("RW")
        assert modified.added_links
        assert touched_ases(modified)
        engine = ctx.routing(modified)
        assert isinstance(engine, DeltaRouting)
        assert ctx.delta_builds == 1
        dirty = engine.dirty
        assert dirty is not None
        assert touched_ases(modified) <= dirty
        sample = sorted(dirty) + sorted(topo.ases)[:20]
        self._assert_matches_full(engine, modified, sample)
        assert engine.delegated > 0  # clean dests served from baseline

    def test_add_cable_reuses_every_table(self, topo):
        ctx = self._warm_context(topo)
        base = ctx.routing(topo)
        modified = WhatIfAddCable(topo).apply("Equiano-2", ("GH", "BR"))
        engine = ctx.routing(modified)
        assert isinstance(engine, DeltaRouting)
        assert engine.dirty == frozenset()
        dst = sorted(topo.ases)[3]
        # Not just equal: the identical baseline table object.
        assert engine.routes_to(dst) is base.routes_to(dst)

    def test_localize_dns_reuses_every_table(self, topo):
        ctx = self._warm_context(topo)
        modified = WhatIfLocalizeDNS(topo).apply("SN")
        engine = ctx.routing(modified)
        assert isinstance(engine, DeltaRouting)
        assert engine.dirty == frozenset()
        self._assert_matches_full(engine, modified,
                                  sorted(topo.ases)[:10])

    def test_p2c_edit_falls_back_to_full(self, topo):
        ctx = self._warm_context(topo)
        modified = topo.structured_copy()
        asns = sorted(topo.ases)
        provider = next(a for a in asns if topo.as_(a).tier == 1)
        customer = next(a for a in asns
                        if topo.as_(a).tier == 3
                        and topo.link_between(provider, a) is None)
        modified.add_link(ASLink(provider, customer,
                                 Relationship.PROVIDER_TO_CUSTOMER))
        engine = ctx.routing(modified)
        assert isinstance(engine, DeltaRouting)
        assert engine.dirty is None  # whole-graph cone: full compute
        self._assert_matches_full(engine, modified,
                                  [provider, customer] + asns[:10])

    def test_precompute_splits_dirty_and_clean(self, topo):
        ctx = self._warm_context(topo)
        modified = WhatIfMandateLocalPeering(topo).apply("RW")
        engine = ctx.routing(modified)
        dirty = sorted(engine.dirty)
        clean = [a for a in sorted(topo.ases)[:15] if a not in engine.dirty]
        computed = engine.precompute(dirty + clean, workers=1)
        assert computed == len(dirty)
        assert engine.delegated >= len(clean)

    def test_extended_compile_matches_fresh(self, topo):
        modified = WhatIfMandateLocalPeering(topo).apply("KE")
        spliced = CompiledTopology.of(topo).extended(modified.added_links)
        fresh = CompiledTopology(modified)
        assert spliced.asns == fresh.asns
        for role in ("providers", "customers", "peers"):
            a, b = getattr(spliced, role), getattr(fresh, role)
            assert a.start == b.start
            assert a.nbr == b.nbr
            assert a.ixp == b.ixp

    def test_for_copy_rejects_non_copies(self, topo):
        base = BGPRouting(topo)
        # The baseline topology itself has no routing_base.
        assert DeltaRouting.for_copy(base, topo) is None
        # A copy whose links were edited outside the journal.
        tampered = topo.structured_copy()
        tampered.links.pop()
        assert DeltaRouting.for_copy(base, tampered) is None
        # A copy whose AS roster changed.
        shrunk = topo.structured_copy()
        victim = sorted(shrunk.ases)[-1]
        del shrunk.ases[victim]
        assert DeltaRouting.for_copy(base, shrunk) is None

    def test_context_without_warm_baseline_builds_full(self, topo):
        ctx = RoutingContext()  # baseline never routed here
        modified = WhatIfMandateLocalPeering(topo).apply("RW")
        engine = ctx.routing(modified)
        assert type(engine) is BGPRouting
        assert ctx.delta_builds == 0
