#!/usr/bin/env python
"""Layer-level floors and identity checks: routing, parallel, events.

perfbench (``perfbench/run.py``) measures the observatory end to end;
this script checks the layers beneath it, one at a time:

* **routing** — every destination's table on the default world, from
  the :class:`ReferenceRouting` oracle and from the compiled engine:
  identical on seeds 2025/11/99, compiled at least 3x faster.  Then a
  ten-scenario local-peering what-if sweep, a full reference engine per
  scenario against ``DeltaRouting`` over one warm baseline: identical
  paths, no full fallbacks, at least 3x faster.
* **parallel** — a mesh snapshot, a monitoring window and a what-if
  sweep run serially and on 2 workers, with identical fingerprints;
  routing tables precomputed both ways come out identical at default
  and continental scale, and the continental precompute is at least
  1.3x faster on 2 workers.
* **events** — fsynced event-log appends at 20,000 events/s or more;
  the streaming detector's p95 catch-up per tick at most 250 ms; two
  runs of the observatory loop byte-identical with the same alerts,
  and an alert for every measurable outage; the same run under
  injected write failures and torn writes injects faults, loses and
  duplicates no event, and raises the same alerts.

It takes no options: the floors are the constants below.  It writes
``benchmarks/BENCH_micro.json``, stamped with perfbench's provenance
(cores, Python, commit, source digest), and exits 0 when every check
passes and 1 when one fails.  Timing two workers on one core measures
dispatch overhead, not parallelism, so with fewer than 2 cores the
parallel floor is recorded as skipped and the script exits 3 even when
every other check passes.

    python scripts/micro.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import provenance  # noqa: E402
from repro import build_world, faults  # noqa: E402
from repro.datasets import collect_snapshot  # noqa: E402
from repro.eventlog import EventLog, EventType, make_event  # noqa: E402
from repro.exec import suggested_workers  # noqa: E402
from repro.faults import FaultInjected  # noqa: E402
from repro.measurement import (  # noqa: E402
    MeasurementEngine,
    build_atlas_platform,
    build_observatory_platform,
)
from repro.monitoring import (  # noqa: E402
    HeartbeatAnalyzer,
    ObservatoryStream,
)
from repro.observatory import (  # noqa: E402
    MonitoringRunner,
    PlacementObjective,
    WhatIfCutCables,
    WhatIfMandateLocalPeering,
    place_probes,
)
from repro.outages import OutageSimulator, march_2024_scenario  # noqa: E402
from repro.routing import (  # noqa: E402
    BGPRouting,
    DeltaRouting,
    PhysicalNetwork,
    ReferenceRouting,
)
from repro.topology import (  # noqa: E402
    ASKind,
    WorldParams,
    continental_params,
)

OUT_PATH = ROOT / "benchmarks" / "BENCH_micro.json"
SEED = 2025

#: Compiled engine against ReferenceRouting, every default-world table.
ROUTING_MIN_SPEEDUP = 3.0
#: DeltaRouting against a full reference engine per what-if scenario.
WHATIF_MIN_SPEEDUP = 3.0
#: Continental precompute on PARALLEL_WORKERS against serial.
PARALLEL_MIN_SPEEDUP = 1.3
PARALLEL_WORKERS = 2
#: Fsynced event-log appends per second.
APPEND_MIN_EPS = 20_000
#: p95 of the detector's catch-up after each heartbeat tick.
CATCHUP_MAX_P95_MS = 250.0

#: Worlds on which the reference and compiled engines must agree.
IDENTITY_SEEDS = (2025, 11, 99)
N_SCENARIOS = 10
N_CONTENT_DESTS = 30
MESH_PAIRS = 2000
MONITOR_DAYS = 540
APPEND_EVENTS = 20_000
APPEND_BATCH = 256
EVENT_DAYS = 10
FAULT_SPEC = "seed=3,eventlog.write_error=0.1,eventlog.torn_write=0.1"
#: Outages below this severity in a probed country may slip under the
#: detector's anomaly threshold.  On the default seed both 10-day
#: outages (CD at 0.20, LY at 0.41) clear it, so the coverage check is
#: binding, not vacuous.
SEVERITY_FLOOR = 0.15


def _sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Routing: compiled core and what-if deltas against the reference
# ----------------------------------------------------------------------
def _table_items(engine, dests):
    """Canonical (dst, asn, entry-tuple) stream of either engine."""
    for dst in dests:
        table = engine.routes_to(dst)
        for asn in sorted(table):
            e = table[asn]
            yield dst, asn, (int(e.kind), e.length, e.next_hop, e.via_ixp)


def bench_full_tables() -> dict:
    topo = build_world(seed=SEED)
    dests = sorted(topo.ases)
    reference = ReferenceRouting(topo)
    reference_s = _timed(lambda: [reference.routes_to(d) for d in dests])
    compiled = BGPRouting(topo)
    compiled_s = _timed(lambda: compiled.precompute(dests, workers=1))

    identical = {}
    for seed in IDENTITY_SEEDS:
        world = topo if seed == SEED else build_world(seed=seed)
        old = reference if seed == SEED else ReferenceRouting(world)
        new = compiled if seed == SEED else BGPRouting(world)
        seed_dests = sorted(world.ases)
        identical[str(seed)] = (_sha(_table_items(old, seed_dests))
                                == _sha(_table_items(new, seed_dests)))
    return {
        "destinations": len(dests),
        "reference_s": round(reference_s, 4),
        "compiled_s": round(compiled_s, 4),
        "speedup": round(reference_s / compiled_s, 2),
        "identical_by_seed": identical,
    }


def _scenario_countries(topo) -> list[str]:
    seen: list[str] = []
    for ixp in sorted(topo.african_ixps(), key=lambda x: x.ixp_id):
        cc = ixp.country_iso2
        if cc not in seen and any(
                a.tier == 3 for a in topo.ases_in_country(cc)):
            seen.append(cc)
        if len(seen) == N_SCENARIOS:
            break
    return seen


def _content_dests(topo) -> list[int]:
    """Every cloud/CDN AS, padded with tier-1 carriers."""
    content = sorted(a.asn for a in topo.ases.values()
                     if a.kind in (ASKind.CLOUD, ASKind.CONTENT))
    tier1 = sorted(a.asn for a in topo.tier1_ases()
                   if a.asn not in set(content))
    return (content + tier1)[:N_CONTENT_DESTS]


def _locality_paths(engine, topo, iso2: str, dests) -> list:
    """Paths from a country's tier-3 locals to global content — the
    question every locality analysis asks of a scenario world."""
    locals_ = sorted(a.asn for a in topo.ases_in_country(iso2)
                     if a.tier == 3)
    rows = []
    for src in locals_:
        for dst in dests:
            path = engine.path(src, dst)
            rows.append((iso2, src, dst, tuple(path) if path else None))
    return rows


def bench_whatif_sweep() -> dict:
    topo = build_world(seed=SEED)
    dests = _content_dests(topo)
    worlds = [(cc, WhatIfMandateLocalPeering(topo).apply(cc))
              for cc in _scenario_countries(topo)]

    start = time.perf_counter()
    full_rows = []
    for cc, modified in worlds:
        full_rows.extend(_locality_paths(ReferenceRouting(modified),
                                         modified, cc, dests))
    full_s = time.perf_counter() - start

    # The warm-up of the baseline is part of the incremental arm's cost.
    start = time.perf_counter()
    baseline = BGPRouting(topo)
    baseline.precompute(dests, workers=1)
    delta_rows = []
    fallbacks = 0
    for cc, modified in worlds:
        engine = DeltaRouting.for_copy(baseline, modified)
        if engine is None:
            engine = BGPRouting(modified)
            fallbacks += 1
        delta_rows.extend(_locality_paths(engine, modified, cc, dests))
    delta_s = time.perf_counter() - start

    return {
        "scenarios": len(worlds),
        "paths": len(full_rows),
        "full_s": round(full_s, 4),
        "delta_s": round(delta_s, 4),
        "speedup": round(full_s / delta_s, 2),
        "identical": _sha(full_rows) == _sha(delta_rows),
        "full_fallbacks": fallbacks,
    }


# ----------------------------------------------------------------------
# Parallel: serial against PARALLEL_WORKERS, same bytes
# ----------------------------------------------------------------------
def _fingerprints(workers: int) -> tuple[dict[str, str], float]:
    """Snapshot, monitoring and what-if fingerprints at a worker count,
    from a fresh world, so neither mode reuses the other's state."""
    topo = build_world(seed=SEED)
    phys = PhysicalNetwork(topo)
    engine = MeasurementEngine(topo, BGPRouting(topo), phys)
    start = time.perf_counter()
    snapshot = collect_snapshot(topo, engine, build_atlas_platform(topo),
                                max_pairs=MESH_PAIRS, workers=workers)
    platform = build_observatory_platform(
        topo, place_probes(topo, PlacementObjective.COUNTRY_COVERAGE))
    simulation = OutageSimulator(topo, phys).simulate(years=1.5)
    report = MonitoringRunner(topo, phys, platform).run(
        simulation, MONITOR_DAYS, workers=workers)
    west, _ = march_2024_scenario(topo)
    severities = WhatIfCutCables(topo).country_severities(
        west, workers=workers)
    elapsed = time.perf_counter() - start
    return {
        "snapshot": _sha(snapshot.traceroutes),
        "monitoring": _sha(
            report.health + report.anomalies
            + [sorted(report.truth), sorted(report.detected_truth),
               sorted(report.radar_truth)]),
        "whatif": _sha(sorted(severities.items())),
    }, elapsed


def _tables_sha(routing: BGPRouting, dests: list[int]) -> str:
    """SHA over the raw bytes of every destination's four columns."""
    h = hashlib.sha256()
    for dst in dests:
        table = routing.routes_to(dst)
        for column in (table.kind, table.length,
                       table.next_hop, table.via_ixp):
            h.update(column.tobytes())
    return h.hexdigest()


def _precompute(params: WorldParams) -> dict:
    topo = build_world(params=params)
    dests = sorted(topo.ases)
    serial = BGPRouting(topo)
    serial_s = _timed(lambda: serial.precompute(dests, workers=1))
    parallel = BGPRouting(topo)
    parallel_s = _timed(
        lambda: parallel.precompute(dests, workers=PARALLEL_WORKERS))
    return {
        "ases": len(topo.ases),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "tables_per_s": round(len(dests) / parallel_s, 1),
        "identical": _tables_sha(serial, dests)
        == _tables_sha(parallel, dests),
    }


def bench_parallel() -> dict:
    serial_fp, serial_s = _fingerprints(workers=1)
    parallel_fp, parallel_s = _fingerprints(workers=PARALLEL_WORKERS)
    return {
        "workers": PARALLEL_WORKERS,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "fingerprints": serial_fp,
        "mismatched": sorted(k for k in serial_fp
                             if serial_fp[k] != parallel_fp[k]),
        "default": _precompute(WorldParams(seed=SEED)),
        "continental": _precompute(continental_params(seed=SEED)),
    }


# ----------------------------------------------------------------------
# Events: event-log appends and the streaming detector
# ----------------------------------------------------------------------
def bench_append() -> dict:
    root = pathlib.Path(tempfile.mkdtemp(prefix="micro-events-"))
    try:
        log = EventLog(root / "log", segment_events=4096)
        batches = [
            [make_event(0.25 * (b * APPEND_BATCH + i) / APPEND_BATCH,
                        EventType.PING, "NG", a=i, b=4,
                        value=20.0 + i % 7)
             for i in range(APPEND_BATCH)]
            for b in range(APPEND_EVENTS // APPEND_BATCH)]
        append_s = _timed(lambda: [log.append(e) for e in batches])
        appended = sum(len(b) for b in batches)
        read_back = len(log.read())
        log.close()
        return {"events": appended, "batch": APPEND_BATCH,
                "append_s": round(append_s, 4),
                "append_eps": round(appended / append_s),
                "read_back": read_back}
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _tree_digest(root: pathlib.Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _run_observatory(root: pathlib.Path, world) -> dict:
    """One writer+detector run, as ``repro heartbeat`` drives it."""
    topo, platform, simulation = world
    log = EventLog(root, segment_events=4096)
    stream = ObservatoryStream(topo, platform, simulation, seed=SEED)
    analyzer = HeartbeatAnalyzer(log)
    recoveries = 0
    catchup_s: list[float] = []

    def supervised(op) -> None:
        nonlocal recoveries
        for _attempt in range(8):
            try:
                op()
                return
            except (FaultInjected, OSError):
                recoveries += 1
                log.recover()
        raise RuntimeError("append kept failing after 8 recoveries")

    for day, hour in stream.ticks(EVENT_DAYS):
        tick = stream.tick_events(day, hour)
        supervised(lambda: log.append(tick))
        start = time.perf_counter()
        supervised(analyzer.catch_up)
        catchup_s.append(time.perf_counter() - start)
    supervised(analyzer.finish)
    log.seal()

    events = log.read()
    log.close()
    return {
        "events": len(events),
        "content": _sha((e.ts, int(e.etype), e.scope, e.a, e.b, e.value,
                         e.ok) for e in events),
        "tree": _tree_digest(root),
        "alerts": sorted((a.scope, a.kind.wire_name, a.raised_bucket,
                          round(a.severity, 6)) for a in analyzer.alerts),
        "outages": {e.scope: e.value for e in events
                    if e.etype is EventType.OUTAGE_BEGIN},
        "probed": list(stream.countries),
        "recoveries": recoveries,
        "catchup_s": catchup_s,
    }


def bench_observatory() -> dict:
    topo = build_world(seed=SEED)
    world = (topo, build_atlas_platform(topo),
             OutageSimulator(topo).simulate(years=EVENT_DAYS / 365.0
                                            + 0.05))
    root = pathlib.Path(tempfile.mkdtemp(prefix="micro-observatory-"))
    try:
        first = _run_observatory(root / "run1", world)
        second = _run_observatory(root / "run2", world)
        faults.configure(FAULT_SPEC)
        try:
            faulted = _run_observatory(root / "faulted", world)
        finally:
            faults.configure(None)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    lag = sorted(first["catchup_s"])
    measurable = sorted(cc for cc, severity in first["outages"].items()
                        if cc in first["probed"]
                        and severity >= SEVERITY_FLOOR)
    alerted = {scope for scope, _kind, _bucket, _sev in first["alerts"]}
    return {
        "days": EVENT_DAYS,
        "events": first["events"],
        "ticks": len(lag),
        "catchup_p95_ms": round(
            lag[min(len(lag) - 1, int(0.95 * len(lag)))] * 1000.0, 3),
        "byte_identical": first["tree"] == second["tree"],
        "alerts": first["alerts"],
        "alerts_identical": first["alerts"] == second["alerts"],
        "measurable_outages": measurable,
        "unalerted_outages": [cc for cc in measurable
                              if cc not in alerted],
        "faulted": {
            "recoveries": faulted["recoveries"],
            "content_identical": faulted["content"] == first["content"],
            "alerts_identical": faulted["alerts"] == first["alerts"],
        },
    }


# ----------------------------------------------------------------------
def checks(doc: dict, cores: int) -> dict[str, str]:
    """Every floor and identity check: ``pass``, ``fail`` or
    ``skipped``."""
    full = doc["routing"]["full_tables"]
    sweep = doc["routing"]["whatif_sweep"]
    par = doc["parallel"]
    append = doc["events"]["append"]
    obs = doc["events"]["observatory"]
    faulted = obs["faulted"]
    verdicts = {
        "routing: identical tables on every seed":
            all(full["identical_by_seed"].values()),
        f"routing: compiled >= {ROUTING_MIN_SPEEDUP}x reference":
            full["speedup"] >= ROUTING_MIN_SPEEDUP,
        "what-if: identical paths": sweep["identical"],
        "what-if: no full fallbacks": sweep["full_fallbacks"] == 0,
        f"what-if: delta >= {WHATIF_MIN_SPEEDUP}x full":
            sweep["speedup"] >= WHATIF_MIN_SPEEDUP,
        "parallel: identical fingerprints": not par["mismatched"],
        "parallel: identical tables, default scale":
            par["default"]["identical"],
        "parallel: identical tables, continental scale":
            par["continental"]["identical"],
        f"parallel: continental precompute >= {PARALLEL_MIN_SPEEDUP}x":
            None if cores < 2
            else par["continental"]["speedup"] >= PARALLEL_MIN_SPEEDUP,
        f"events: >= {APPEND_MIN_EPS} fsynced events/s":
            append["append_eps"] >= APPEND_MIN_EPS
            and append["read_back"] == append["events"],
        f"events: detector p95 <= {CATCHUP_MAX_P95_MS} ms":
            obs["catchup_p95_ms"] <= CATCHUP_MAX_P95_MS,
        "events: two runs byte-identical": obs["byte_identical"],
        "events: two runs raise the same alerts":
            obs["alerts_identical"],
        "events: every measurable outage alerted":
            not obs["unalerted_outages"],
        "fault arm: faults injected": faulted["recoveries"] > 0,
        "fault arm: no event lost or duplicated":
            faulted["content_identical"],
        "fault arm: same alerts": faulted["alerts_identical"],
    }
    return {name: "skipped" if ok is None else "pass" if ok else "fail"
            for name, ok in verdicts.items()}


def main() -> int:
    cores = suggested_workers()
    print(f"cores={cores} seed={SEED}", flush=True)
    routing = {"full_tables": bench_full_tables(),
               "whatif_sweep": bench_whatif_sweep()}
    full, sweep = routing["full_tables"], routing["whatif_sweep"]
    print(f"routing: reference {full['reference_s']}s, compiled "
          f"{full['compiled_s']}s -> {full['speedup']}x; what-if full "
          f"{sweep['full_s']}s, delta {sweep['delta_s']}s -> "
          f"{sweep['speedup']}x", flush=True)
    parallel = bench_parallel()
    cont = parallel["continental"]
    print(f"parallel: workload serial {parallel['serial_s']}s, "
          f"{PARALLEL_WORKERS} workers {parallel['parallel_s']}s; "
          f"continental precompute serial {cont['serial_s']}s, "
          f"parallel {cont['parallel_s']}s -> {cont['speedup']}x",
          flush=True)
    events = {"append": bench_append(), "observatory": bench_observatory()}
    print(f"events: {events['append']['append_eps']} fsynced events/s, "
          f"detector p95 {events['observatory']['catchup_p95_ms']} ms, "
          f"fault-arm recoveries "
          f"{events['observatory']['faulted']['recoveries']}", flush=True)

    doc = {"format": "repro-micro/1", "provenance": provenance(SEED),
           "routing": routing, "parallel": parallel, "events": events}
    doc["checks"] = checks(doc, cores)
    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, verdict in doc["checks"].items():
        print(f"{verdict.upper():8s} {name}")
    print(f"wrote {OUT_PATH.relative_to(ROOT)}")
    verdicts = set(doc["checks"].values())
    if "fail" in verdicts:
        return 1
    if "skipped" in verdicts:
        print("parallel floor skipped: fewer than 2 cores",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
