"""repro.store: keys, content addressing, LRU eviction, integrity."""

from __future__ import annotations

import json
import os

import pytest

from repro.store import (
    ArtifactKey,
    ArtifactStore,
    canonical_bytes,
    digest_bytes,
    digest_obj,
)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(root=tmp_path / "store", max_bytes=10_000)


def _key(**params) -> ArtifactKey:
    return ArtifactKey.make("api.test", 2025, params, schema_version=1)


# ----------------------------------------------------------------------
class TestKeys:
    def test_digest_stable_across_param_order(self):
        a = ArtifactKey.make("k", 1, {"x": 1, "y": 2})
        b = ArtifactKey.make("k", 1, {"y": 2, "x": 1})
        assert a == b and a.digest == b.digest

    def test_digest_distinguishes_every_field(self):
        base = ArtifactKey.make("k", 1, {"x": 1}, schema_version=1)
        assert base.digest != ArtifactKey.make(
            "k2", 1, {"x": 1}, schema_version=1).digest
        assert base.digest != ArtifactKey.make(
            "k", 2, {"x": 1}, schema_version=1).digest
        assert base.digest != ArtifactKey.make(
            "k", 1, {"x": 2}, schema_version=1).digest
        assert base.digest != ArtifactKey.make(
            "k", 1, {"x": 1}, schema_version=2).digest

    def test_canonical_bytes_is_order_independent(self):
        assert canonical_bytes({"b": 1, "a": [1, 2]}) == \
            canonical_bytes({"a": [1, 2], "b": 1})

    def test_canonical_bytes_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_bytes({"x": float("nan")})

    def test_digest_obj_matches_manual_hash(self):
        obj = {"a": 1}
        assert digest_obj(obj) == digest_bytes(canonical_bytes(obj))


# ----------------------------------------------------------------------
class TestStoreRoundTrip:
    def test_get_miss_then_put_then_hit(self, store):
        key = _key(x=1)
        assert store.get(key) is None
        store.put(key, b'{"v":1}')
        assert store.get(key) == b'{"v":1}'
        assert store.hits == 1 and store.misses == 1

    def test_put_is_idempotent_overwrite(self, store):
        key = _key(x=1)
        store.put(key, b"one")
        store.put(key, b"two")
        assert store.get(key) == b"two"
        assert len(store.entries()) == 1

    def test_get_or_build_builds_once(self, store):
        key = _key(x=3)
        calls = []

        def build() -> bytes:
            calls.append(1)
            return b"payload"

        p1, hit1 = store.get_or_build(key, build)
        p2, hit2 = store.get_or_build(key, build)
        assert (p1, hit1) == (b"payload", False)
        assert (p2, hit2) == (b"payload", True)
        assert len(calls) == 1

    def test_payload_must_be_bytes(self, store):
        with pytest.raises(TypeError):
            store.put(_key(), {"not": "bytes"})

    def test_entries_expose_key_fields(self, store):
        store.put(_key(pairs=600), b"x" * 10)
        (entry,) = store.entries()
        assert entry.kind == "api.test"
        assert entry.seed == 2025
        assert entry.params == {"pairs": 600}
        assert entry.size_bytes == 10
        assert entry.content_digest == digest_bytes(b"x" * 10)

    def test_stats(self, store):
        store.put(_key(x=1), b"abc")
        store.get(_key(x=1))
        store.get(_key(x=2))
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == 3
        assert stats["hits"] == 1 and stats["misses"] == 1


# ----------------------------------------------------------------------
class TestIntegrity:
    def test_corrupted_payload_is_a_miss_and_dropped(self, store):
        key = _key(x=1)
        store.put(key, b"good bytes")
        payload_path = store._payload_path(key.digest)
        payload_path.write_bytes(b"evil bytes")
        assert store.get(key) is None
        assert not payload_path.exists()  # quarantined
        # The next write repopulates cleanly.
        store.put(key, b"good bytes")
        assert store.get(key) == b"good bytes"

    def test_verify_reports_mismatch_without_deleting(self, store):
        key = _key(x=1)
        store.put(key, b"good")
        store._payload_path(key.digest).write_bytes(b"bad!")
        problems = store.verify()
        assert [p.reason for p in problems] == ["content digest mismatch"]
        assert problems[0].key_digest == key.digest

    def test_verify_reports_orphan_payload(self, store):
        key = _key(x=2)
        store.put(key, b"data")
        store._meta_path(key.digest).unlink()
        reasons = {p.reason for p in store.verify()}
        assert "orphan payload" in reasons

    def test_verify_clean_store(self, store):
        store.put(_key(x=1), b"a")
        store.put(_key(x=2), b"b")
        assert store.verify() == []


# ----------------------------------------------------------------------
class TestEviction:
    def test_put_evicts_lru_over_cap(self, tmp_path):
        store = ArtifactStore(root=tmp_path, max_bytes=250)
        keys = [_key(i=i) for i in range(4)]
        for age, key in enumerate(keys):
            store.put(key, b"x" * 100)
            # Well-separated mtimes make LRU order unambiguous.
            path = store._payload_path(key.digest)
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        # Cap is 250 → only the two most recent survive.
        store.gc()
        assert store.get(keys[0]) is None
        assert store.get(keys[1]) is None
        assert store.get(keys[2]) is not None
        assert store.get(keys[3]) is not None

    def test_read_refreshes_recency(self, tmp_path):
        store = ArtifactStore(root=tmp_path, max_bytes=1_000)
        old, new = _key(i=0), _key(i=1)
        store.put(old, b"x" * 100)
        store.put(new, b"y" * 100)
        for i, key in enumerate((old, new)):
            os.utime(store._payload_path(key.digest),
                     (1_000_000 + i, 1_000_000 + i))
        assert store.get(old) is not None  # bumps old's mtime to now
        evicted = store.gc(max_bytes=150)
        assert [e.params for e in evicted] == [{"i": 1}]
        assert store.get(old) is not None

    def test_gc_returns_evicted_entries(self, tmp_path):
        store = ArtifactStore(root=tmp_path, max_bytes=10_000)
        store.put(_key(i=0), b"z" * 50)
        evicted = store.gc(max_bytes=0)
        assert len(evicted) == 1
        assert store.entries() == []

    def test_clear(self, store):
        store.put(_key(i=0), b"a")
        store.put(_key(i=1), b"b")
        store.clear()
        assert store.entries() == []
        assert store.total_bytes() == 0


# ----------------------------------------------------------------------
class TestRunningTotal:
    """Puts keep a running byte total instead of rescanning the store:
    they scan only on an object's first put or once the total crosses
    the cap."""

    @staticmethod
    def _count_scans(store, monkeypatch) -> list:
        scans: list = []
        original = store._scan

        def counting():
            scans.append(1)
            return original()

        monkeypatch.setattr(store, "_scan", counting)
        return scans

    def test_put_below_the_cap_does_not_scan(self, tmp_path, monkeypatch):
        store = ArtifactStore(root=tmp_path, max_bytes=10_000)
        scans = self._count_scans(store, monkeypatch)
        store.put(_key(i=0), b"a" * 100)      # first put: one scan
        assert len(scans) == 1
        for i in range(1, 40):
            store.put(_key(i=i), b"b" * 100)
        store.put(_key(i=3), b"c" * 200)      # overwrite
        assert len(scans) == 1
        assert store.total_bytes() == 40 * 100 + 100
        assert len(scans) == 2

    def test_crossing_the_cap_evicts_lru_and_fires_hooks(self, tmp_path,
                                                         monkeypatch):
        store = ArtifactStore(root=tmp_path, max_bytes=350)
        dropped: list[str] = []
        store.add_invalidation_hook(dropped.append)
        keys = [_key(i=i) for i in range(5)]
        for age, key in enumerate(keys[:3]):
            store.put(key, b"x" * 100)
            os.utime(store._payload_path(key.digest),
                     (1_000_000 + age, 1_000_000 + age))
        scans = self._count_scans(store, monkeypatch)
        store.put(keys[3], b"x" * 100)        # 400 > 350: scan, evict
        assert len(scans) == 1
        assert dropped == [keys[0].digest]
        store.put(keys[4], b"x" * 100)        # 400 again: evict keys[1]
        assert dropped == [keys[0].digest, keys[1].digest]
        assert store.get(keys[0]) is None and store.get(keys[1]) is None
        assert all(store.get(k) is not None for k in keys[2:])
        assert store.total_bytes() == 300

    def test_total_and_gauge_stay_exact(self, tmp_path):
        from repro import telemetry
        gauge = telemetry.REGISTRY.get("repro_store_bytes")
        was = telemetry.enabled()
        telemetry.enable()
        try:
            store = ArtifactStore(root=tmp_path, max_bytes=10_000)

            def exact(expected: int) -> None:
                assert gauge.value == expected
                assert store.total_bytes() == expected

            store.put(_key(i=0), b"a" * 100)
            store.put(_key(i=1), b"b" * 50)
            exact(150)
            store.put(_key(i=0), b"c" * 30)   # overwrite replaces size
            exact(80)
            store.put(_key(i=0), b"d" * 30)
            exact(80)
            os.utime(store._payload_path(_key(i=1).digest),
                     (1_000_000, 1_000_000))
            assert [e.params for e in store.gc(max_bytes=40)] \
                == [{"i": 1}]
            assert gauge.value == 30
            store.put(_key(i=2), b"e" * 20)
            exact(50)
            store.clear()
            exact(0)
            store.put(_key(i=3), b"f" * 7)
            exact(7)
        finally:
            if not was:
                telemetry.disable()

    def test_concurrent_puts_keep_the_total_exact(self, tmp_path):
        import sys
        import threading
        from repro import telemetry
        store = ArtifactStore(root=tmp_path, max_bytes=10_000_000)
        errors: list = []

        def work(w: int) -> None:
            try:
                for i in range(60):   # overwrites with changing sizes
                    store.put(_key(i=i % 10), bytes(1 + (w * 7 + i) % 50))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        gauge = telemetry.REGISTRY.get("repro_store_bytes")
        was = telemetry.enabled()
        telemetry.enable()
        try:
            store.put(_key(i=99), b"z")   # publishes the running total
            assert gauge.value == ArtifactStore(root=tmp_path).total_bytes()
        finally:
            if not was:
                telemetry.disable()

    def test_two_writers_trim_once_either_crosses_the_cap(self, tmp_path):
        a = ArtifactStore(root=tmp_path, max_bytes=1_000)
        b = ArtifactStore(root=tmp_path, max_bytes=1_000)
        observer = ArtifactStore(root=tmp_path)
        # Each writer counts its own bytes since its first put's scan:
        # a from 100, b from 200 (its scan also saw a's first entry).
        for i in range(9):
            a.put(_key(w="a", i=i), b"a" * 100)
            b.put(_key(w="b", i=i), b"b" * 100)
        assert observer.total_bytes() == 1_800   # over cap, untrimmed
        a.put(_key(w="a", i=9), b"a" * 100)       # a: 1,000, not over
        assert observer.total_bytes() == 1_900
        b.put(_key(w="b", i=9), b"b" * 100)       # b: 1,100, crosses
        assert observer.total_bytes() == 1_000


# ----------------------------------------------------------------------
class TestAtomicity:
    def test_no_partial_files_outside_tmp(self, store):
        for i in range(5):
            store.put(_key(i=i), json.dumps({"i": i}).encode())
        # Staging dir drains; objects hold exactly payload+meta pairs.
        assert list((store.root / "tmp").iterdir()) == []
        bins = list(store.root.glob("objects/*/*.bin"))
        metas = list(store.root.glob("objects/*/*.meta.json"))
        assert len(bins) == len(metas) == 5

    def test_meta_records_the_key(self, store):
        key = _key(years=2.0)
        store.put(key, b"payload")
        meta = json.loads(store._meta_path(key.digest).read_bytes())
        assert meta["key"] == key.to_dict()
        assert meta["key_digest"] == key.digest


# ----------------------------------------------------------------------
class TestWorldDigest:
    def test_save_load_round_trip_digest_is_stable(self, topo, tmp_path):
        from repro.topology import load_world, save_world, world_digest
        d1 = world_digest(topo)
        path = tmp_path / "world.json.gz"
        save_world(topo, path)
        d2 = world_digest(load_world(path))
        assert d1 == d2
        assert len(d1) == 64 and int(d1, 16) >= 0

    def test_digest_detects_content_drift(self, topo):
        from repro.topology import (CableCorridor, Landing, SubseaCable,
                                    world_digest)
        drifted = topo.structured_copy()
        drifted.cables.append(SubseaCable(
            cable_id=max(c.cable_id for c in topo.cables) + 1,
            name="Drift-1", corridor=CableCorridor.SOUTH_ATLANTIC,
            landings=[Landing("GH", "Accra", 5.56, -0.2),
                      Landing("BR", "Fortaleza", -3.7, -38.5)],
            rfs_year=2020, capacity_tbps=30.0, diverse_route=True))
        assert world_digest(drifted) != world_digest(topo)

    def test_cli_save_and_load_report_same_digest(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        path = str(tmp_path / "w.json")
        assert main(["save", path]) == 0
        save_out = capsys.readouterr().out
        assert main(["load-check", path]) == 0
        load_out = capsys.readouterr().out
        digest_save = [l for l in save_out.splitlines()
                       if l.startswith("content digest: ")]
        digest_load = [l for l in load_out.splitlines()
                       if l.startswith("content digest: ")]
        assert digest_save and digest_save == digest_load
