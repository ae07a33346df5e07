"""Command-line interface: ``python -m repro <command>``.

Commands mirror what a regulator or operator would actually ask the
Observatory for:

* ``summary``    — world inventory for a seed
* ``detours``    — Fig. 2a/3 style connectivity report
* ``coverage``   — Table 1 scanner coverage
* ``outages``    — simulate N years of outages (Fig. 4)
* ``cablecut``   — replay a named cable-cut scenario
* ``watchdog``   — §5.2 policy-compliance report
* ``placement``  — footnote-1 set-cover probe placement
* ``save``/``load-check`` — world snapshots (with content digests)
* ``telemetry``  — instrumented smoke run across every subsystem
* ``serve``      — run the Observatory as an HTTP service
* ``store``      — inspect/gc/verify the artifact cache
* ``heartbeat``  — always-on loop: generate → append → detect → alert

Any command accepts the global ``--telemetry`` flag (print a metrics +
span report after the command), ``--telemetry-out PATH`` (write the
JSON report to PATH and Prometheus text next to it), ``--workers N``
(fan independent measurement units out over N processes; output is
byte-identical to ``--workers 1`` — see docs/performance.md), and
``--faults SPEC`` (seeded fault injection for chaos testing — see
docs/robustness.md).
"""

from __future__ import annotations

import argparse
import sys

from repro import build_world, telemetry, WorldParams
from repro.reporting import ascii_table, pct


def _world(args):
    return build_world(params=WorldParams(seed=args.seed))


def cmd_summary(args) -> int:
    topo = _world(args)
    print(ascii_table(["metric", "value"],
                      sorted(topo.summary().items()),
                      title=f"World summary (seed={args.seed})"))
    return 0


def cmd_detours(args) -> int:
    from repro.analysis import analyze_snapshot
    from repro.datasets import build_ixp_directory, collect_snapshot
    from repro.exec import pair_for
    from repro.geo import AFRICAN_REGIONS
    from repro.measurement import (GeolocationService, MeasurementEngine,
                                   build_atlas_platform)
    topo = _world(args)
    routing, phys = pair_for(topo)
    engine = MeasurementEngine(topo, routing, phys)
    snapshot = collect_snapshot(topo, engine,
                                build_atlas_platform(topo),
                                max_pairs=args.pairs)
    report = analyze_snapshot(topo, snapshot, GeolocationService(topo),
                              build_ixp_directory(topo))
    rows = [["All", report.sample_count(), pct(report.detour_rate()),
             pct(report.ixp_traversal_rate())]]
    for region in AFRICAN_REGIONS:
        rows.append([region.value, report.sample_count(region),
                     pct(report.detour_rate(region)),
                     pct(report.ixp_traversal_rate(region))])
    print(ascii_table(["scope", "pairs", "detour", "IXP traversal"],
                      rows, title="Connectivity report"))
    return 0


def cmd_coverage(args) -> int:
    from repro.analysis import build_coverage_table
    from repro.datasets import build_delegated_file
    from repro.exec import routing_for
    from repro.measurement import (run_ant_hitlist, run_caida_prefix_scan,
                                   run_yarrp_scan)
    topo = _world(args)
    scans = [run_ant_hitlist(topo), run_caida_prefix_scan(topo),
             run_yarrp_scan(topo, routing_for(topo))]
    table = build_coverage_table(topo, build_delegated_file(topo), scans)
    print(ascii_table(
        ["dataset", "entries", "mobile", "non-mobile", "IXP"],
        [[r.dataset, r.entries, pct(r.mobile_coverage),
          pct(r.non_mobile_coverage), pct(r.ixp_coverage)]
         for r in table.rows],
        title="Scanner coverage of African infrastructure (Table 1)"))
    return 0


def cmd_outages(args) -> int:
    from repro.analysis import analyze_outages
    from repro.datasets import build_radar_feed
    from repro.outages import OutageSimulator
    topo = _world(args)
    simulation = OutageSimulator(topo).simulate(years=args.years)
    report = analyze_outages(simulation,
                             build_radar_feed(simulation, seed=args.seed))
    print(ascii_table(
        ["cause", "events", "median days", "countries/event"],
        [[r.cause, r.events, f"{r.median_duration_days:.2f}",
          f"{r.mean_countries_affected:.1f}"]
         for r in sorted(report.rows,
                         key=lambda r: -r.median_duration_days)],
        title=f"Outages over {args.years} simulated years"))
    print(f"Africa/EU+NA outage-rate ratio: {report.rate_ratio():.1f}x")
    return 0


def cmd_cablecut(args) -> int:
    from repro.observatory import WhatIfCutCables
    from repro.outages import march_2024_scenario
    topo = _world(args)
    west, east = march_2024_scenario(topo)
    cut = west if args.scenario == "west" else east
    names = {c.cable_id: c.name for c in topo.cables}
    print("Cutting: " + ", ".join(names[c] for c in cut))
    severities = WhatIfCutCables(topo).country_severities(cut)
    rows = sorted(((cc, s) for cc, s in severities.items() if s > 0.1),
                  key=lambda kv: -kv[1])
    print(ascii_table(["country", "traffic lost"],
                      [[cc, f"{s:.0%}"] for cc, s in rows]))
    return 0


def cmd_watchdog(args) -> int:
    from repro.observatory import DEFAULT_POLICY_PACKAGE, PolicyWatchdog
    topo = _world(args)
    watchdog = PolicyWatchdog(topo)
    countries = args.countries.split(",") if args.countries else None
    report = watchdog.assess(DEFAULT_POLICY_PACKAGE, countries)
    rows = [[f.iso2, f.policy.kind.value,
             "PASS" if f.compliant else "FAIL", f.detail]
            for f in report.findings]
    print(ascii_table(["country", "policy", "verdict", "measured"],
                      rows, title="Policy compliance (§5.2 watchdog)"))
    print(f"Overall compliance: {pct(report.compliance_rate())}")
    return 0


def cmd_placement(args) -> int:
    from repro.observatory import ixp_cover_hosts
    topo = _world(args)
    cover = ixp_cover_hosts(topo, max_picks=args.budget)
    rows = [[i + 1, f"AS{asn}", topo.as_(asn).name,
             topo.as_(asn).country_iso2, cover.curve[i]]
            for i, asn in enumerate(cover.chosen)]
    print(ascii_table(
        ["pick", "ASN", "network", "country", "IXPs covered"],
        rows, title="Set-cover probe placement (footnote 1)"))
    if cover.uncovered:
        print(f"Uncovered IXPs: {sorted(cover.uncovered)}")
    return 0


def cmd_fleet(args) -> int:
    from repro.measurement import build_observatory_platform
    from repro.observatory import (PlacementObjective, fleet_budget,
                                   place_probes)
    topo = _world(args)
    objective = (PlacementObjective.IXP_COVERAGE
                 if args.objective == "ixp"
                 else PlacementObjective.COUNTRY_COVERAGE)
    fleet = build_observatory_platform(
        topo, place_probes(topo, objective))
    budget = fleet_budget(fleet.probes, monthly_data_gb=args.data_gb)
    print(ascii_table(
        ["region", "monthly USD"],
        [[region, f"${usd:,.0f}"]
         for region, usd in sorted(budget.by_region().items())],
        title=f"Fleet economics ({len(fleet)} probes, "
              f"{args.data_gb} GB/probe/month)"))
    print(f"Total: ${budget.monthly_usd:,.0f}/month "
          f"(${budget.annual_usd:,.0f}/year)")
    return 0


def cmd_save(args) -> int:
    from repro.topology import save_world, world_digest
    topo = _world(args)
    save_world(topo, args.path)
    print(f"Saved world (seed={args.seed}) to {args.path}")
    print(f"content digest: {world_digest(topo)}")
    return 0


def cmd_load_check(args) -> int:
    from repro.topology import load_world, world_digest
    topo = load_world(args.path)
    print(ascii_table(["metric", "value"],
                      sorted(topo.summary().items()),
                      title=f"Loaded world from {args.path}"))
    print(f"content digest: {world_digest(topo)}")
    return 0


def cmd_serve(args) -> int:
    """Run the Observatory HTTP service (see docs/service.md).

    Serves until SIGTERM/SIGINT, then drains gracefully: stop
    accepting, give in-flight jobs ``--drain-timeout`` seconds to
    settle (anything left is failed so no waiter blocks), flush
    telemetry, exit 0.  See docs/robustness.md.
    """
    import signal
    import threading

    from repro import faults
    from repro.service import AsyncServerThread, create_server, \
        create_service
    from repro.store import ArtifactStore
    telemetry.enable()  # a serving process always self-instruments
    store = ArtifactStore(root=args.store_dir,
                          max_bytes=int(args.store_cap_mb * 1024 * 1024))
    access_stream = None
    if args.access_log == "-":
        access_stream = sys.stderr
    elif args.access_log:
        access_stream = open(args.access_log, "a", buffering=1)
    httpd = serve_thread = runner = None
    if args.async_server:
        service = create_service(
            store=store, job_workers=args.job_workers,
            default_seed=args.seed, job_deadline_s=args.job_deadline,
            job_retries=args.job_retries, events_dir=args.events_dir,
            hot_cache_bytes=args.hot_cache_bytes)
        runner = AsyncServerThread(service, host=args.host,
                                   port=args.port,
                                   access_log=access_stream)
        host, port = runner.start()
    else:
        httpd, service = create_server(
            host=args.host, port=args.port, store=store,
            job_workers=args.job_workers, default_seed=args.seed,
            job_deadline_s=args.job_deadline,
            job_retries=args.job_retries,
            events_dir=args.events_dir, access_log=access_stream,
            hot_cache_bytes=args.hot_cache_bytes)
        host, port = httpd.server_address[:2]
    transport = "async" if args.async_server else "threaded"
    print(f"repro service listening on http://{host}:{port} "
          f"(store: {store.root}, transport: {transport})", flush=True)
    if args.events_dir:
        print(f"serving event log at {args.events_dir} "
              f"(/v1/events, /v1/heartbeat)", flush=True)
    if faults.active():
        print(faults.describe(), flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame) -> None:
        stop.set()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _request_stop)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    if httpd is not None:
        serve_thread = threading.Thread(target=httpd.serve_forever,
                                        daemon=True, name="repro-serve")
        serve_thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        print("draining: stopped accepting, settling in-flight jobs",
              flush=True)
        if runner is not None:
            runner.stop()
        if httpd is not None:
            httpd.shutdown()
        service.queue.shutdown(timeout=args.drain_timeout)
        if httpd is not None:
            httpd.server_close()
            serve_thread.join(timeout=2.0)
        if access_stream is not None and access_stream is not sys.stderr:
            access_stream.close()
        doc = telemetry.to_json()
        print(f"telemetry flushed: {len(doc.get('metrics', []))} "
              f"metric series, {len(doc.get('spans', []))} span trees",
              flush=True)
        print("drained: exiting cleanly", flush=True)
    return 0


def cmd_store(args) -> int:
    """Inspect, garbage-collect or verify the artifact store."""
    from repro.store import ArtifactStore
    store = ArtifactStore(root=args.store_dir) if args.cap_mb is None \
        else ArtifactStore(root=args.store_dir,
                           max_bytes=int(args.cap_mb * 1024 * 1024))
    if args.action == "ls":
        entries = store.entries()
        rows = [[e.kind, e.seed, e.schema_version,
                 ",".join(f"{k}={v}" for k, v in sorted(e.params.items()))
                 or "-",
                 e.size_bytes, e.key_digest[:12]]
                for e in entries]
        print(ascii_table(
            ["kind", "seed", "schema", "params", "bytes", "key"],
            rows, title=f"Artifact store at {store.root}"))
        stats = store.stats()
        print(f"{stats['entries']} artifacts, "
              f"{stats['total_bytes']} bytes "
              f"(cap {store.max_bytes})")
        return 0
    if args.action == "gc":
        evicted = store.gc()
        for e in evicted:
            print(f"evicted {e.kind} seed={e.seed} "
                  f"({e.size_bytes} bytes, {e.key_digest[:12]})")
        print(f"{len(evicted)} artifacts evicted; "
              f"{store.total_bytes()} bytes retained")
        return 0
    # verify
    problems = store.verify()
    for p in problems:
        print(f"CORRUPT {p.key_digest[:12]}: {p.reason}")
    total = len(store.entries())
    print(f"verified {total} artifacts: "
          f"{'OK' if not problems else f'{len(problems)} problem(s)'}")
    return 0 if not problems else 1


def cmd_heartbeat(args) -> int:
    """Run the always-on observatory loop over simulated days.

    Each quarter-day tick: generate the fleet's measurement events,
    append them durably to the event log, let the streaming detector
    catch up, and emit any alerts back into the log.  Appends are
    supervised — an injected (or real) write failure triggers log
    recovery and a bounded retry, so a crash mid-append never loses
    acknowledged events (docs/eventlog.md).
    """
    from repro import faults
    from repro.eventlog import EventLog
    from repro.faults import FaultInjected
    from repro.measurement import build_atlas_platform
    from repro.monitoring import HeartbeatAnalyzer, ObservatoryStream
    from repro.outages import OutageSimulator

    if faults.active():
        print(faults.describe(), flush=True)
    topo = _world(args)
    platform = build_atlas_platform(topo)
    simulation = OutageSimulator(topo).simulate(
        years=max(args.days, 1) / 365.0 + 0.05)
    log = EventLog(args.events_dir, segment_events=args.segment_events)
    stream = ObservatoryStream(topo, platform, simulation,
                               seed=args.seed)
    analyzer = HeartbeatAnalyzer(log)
    recoveries = 0

    def supervised(op) -> None:
        # Retried ops must be idempotent-on-retry: log.append is
        # all-or-nothing per batch and the analyzer only drops its
        # pending-alert buffer once the append lands.
        nonlocal recoveries
        for _attempt in range(8):
            try:
                op()
                return
            except (FaultInjected, OSError):
                recoveries += 1
                log.recover()
        raise RuntimeError("event-log write kept failing after "
                           "8 recoveries; giving up")

    with telemetry.span("cli.heartbeat", days=args.days,
                        countries=len(stream.countries)):
        for day, hour in stream.ticks(args.days):
            batch = stream.tick_events(day, hour)
            supervised(lambda: log.append(batch))
            supervised(analyzer.catch_up)
        supervised(analyzer.finish)
        log.seal()

    counts = log.counts_by_type()
    print(ascii_table(
        ["event type", "count"],
        [[name, counts[name]] for name in sorted(counts)],
        title=f"Event log at {log.root} "
              f"({args.days} days, seed={args.seed})"))
    alerts = analyzer.alerts
    if alerts:
        print(ascii_table(
            ["country", "kind", "raised day", "buckets", "severity"],
            [[a.scope, a.kind.wire_name, f"{a.raised_ts:.2f}",
              a.buckets_active, f"{a.severity:.2f}"]
             for a in alerts],
            title=f"{len(alerts)} alert(s) raised"))
    else:
        print("no alerts raised")
    print(f"{log.head_seq + 1} events in {len(log.segments())} "
          f"segment(s); detector cursor {analyzer.cursor}; "
          f"{recoveries} append recover(ies)")
    return 0


def cmd_coordinator(args) -> int:
    """Run the fleet coordinator (see docs/distributed.md).

    Serves the agent RPC port until SIGTERM/SIGINT, then drains:
    agents polling after the signal are told to shut down.  With
    ``--http-port`` the Observatory HTTP service runs alongside with
    the coordinator attached, so ``/v1/fleet/*`` serves live state.
    """
    import signal
    import threading

    from repro import faults
    from repro.eventlog import EventLog
    from repro.fleet import CoordinatorServer, FleetCoordinator
    from repro.store import ArtifactStore
    telemetry.enable()
    eventlog = EventLog(args.events_dir) if args.events_dir else None
    store = ArtifactStore(root=args.store_dir) if args.store_dir else None
    coordinator = FleetCoordinator(
        heartbeat_timeout_s=args.heartbeat_timeout,
        lease_timeout_s=args.lease_timeout,
        eventlog=eventlog, store=store)
    server = CoordinatorServer(coordinator, host=args.host,
                               port=args.port).start()
    host, port = server.address
    print(f"fleet coordinator listening on {host}:{port}", flush=True)
    httpd = None
    if args.http_port is not None:
        from repro.service import create_server
        httpd, _service = create_server(
            host=args.host, port=args.http_port,
            default_seed=args.seed, coordinator=coordinator)
        threading.Thread(target=httpd.serve_forever, daemon=True,
                         name="fleet-http").start()
        hhost, hport = httpd.server_address[:2]
        print(f"fleet status at http://{hhost}:{hport}/v1/fleet/agents",
              flush=True)
    if faults.active():
        print(faults.describe(), flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame) -> None:
        stop.set()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _request_stop)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        print("draining: telling agents to shut down", flush=True)
        coordinator.drain()
        server.stop()
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if eventlog is not None:
            eventlog.seal()
        print("drained: exiting cleanly", flush=True)
    return 0


def cmd_agent(args) -> int:
    """Run one measurement agent against a coordinator."""
    import os

    from repro import faults
    from repro.exec import suggested_workers
    from repro.fleet import Agent, TcpClient
    host, _, port = args.connect.rpartition(":")
    if not port.isdigit():
        print(f"--connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    if not args.poll < args.timeout:
        # An idle lease is held open for --poll seconds; one that
        # outlasts the RPC timeout would be retried as a lost message.
        print(f"--poll ({args.poll:g}) must be below --timeout "
              f"({args.timeout:g})", file=sys.stderr)
        return 2
    if faults.active():
        print(faults.describe(), flush=True)
    agent_id = args.agent_id or f"agent-{os.getpid()}"
    workers = args.workers if args.workers > 0 else suggested_workers()
    agent = Agent(TcpClient((host or "127.0.0.1", int(port)),
                            timeout=args.timeout),
                  agent_id=agent_id, workers=workers, poll_s=args.poll,
                  hard_exit=True, max_idle_polls=args.exit_when_idle)
    stats = agent.run()
    print(f"agent {agent_id}: {stats.units_done} unit(s) done over "
          f"{stats.polls} poll(s)"
          + (" (coordinator drained)" if stats.shutdown else ""))
    return 0


def cmd_campaign(args) -> int:
    """Dispatch a measurement campaign across a fleet of agents.

    Default mode self-hosts a coordinator and spawns ``--agents``
    agents — subprocesses (``--mode procs``) for real parallelism, or
    in-process threads (``--mode threads``).  ``--connect HOST:PORT``
    submits to an already-running coordinator instead.  ``--verify``
    re-runs the campaign single-process and fails (exit 1) unless the
    merged artifacts are byte-identical.
    """
    import subprocess
    import time as _time

    from repro import faults
    from repro.fleet import (Agent, CampaignSpec, CoordinatorServer,
                             FleetCoordinator, TcpClient, merged_digest,
                             run_campaign_serial, spawn_local_agents)
    from repro.fleet import rpc as fleet_rpc
    spec = CampaignSpec(seed=args.seed, scale=args.scale,
                        rounds=args.rounds, shards=args.shards,
                        probes_per_shard=args.probes_per_shard,
                        targets_per_probe=args.targets_per_probe)
    if faults.active():
        print(faults.describe(), flush=True)
    t0 = _time.perf_counter()
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        address = (host or "127.0.0.1", int(port))
        resp = fleet_rpc.call(address, {"op": "campaign",
                                        "spec": spec.to_dict()})
        cid = resp["campaign_id"]
        print(f"submitted campaign {cid}", flush=True)
        merged = None
        deadline = _time.monotonic() + args.timeout
        while _time.monotonic() < deadline:
            # The coordinator holds the call until the campaign merges
            # (or its own cap); 5 s stays well inside the RPC timeout.
            wait_s = min(5.0, deadline - _time.monotonic())
            status = fleet_rpc.call(address,
                                    {"op": "campaign_status",
                                     "campaign_id": cid,
                                     "include_result": True,
                                     "wait_s": wait_s})
            if not status.get("ok"):
                print(f"campaign {cid}: {status.get('error')}",
                      file=sys.stderr)
                return 1
            if status.get("done"):
                merged = status["result"]
                break
    else:
        coordinator = FleetCoordinator(
            heartbeat_timeout_s=args.heartbeat_timeout,
            lease_timeout_s=args.lease_timeout)
        cid = coordinator.submit_campaign(spec)
        procs: list[subprocess.Popen] = []
        threads = []
        server = None
        if args.mode == "procs":
            server = CoordinatorServer(coordinator).start()
            host, port = server.address
            for i in range(args.agents):
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "agent",
                     "--connect", f"{host}:{port}",
                     "--agent-id", f"proc-{i}",
                     "--poll", str(args.poll),
                     # Idle long enough to survive a lease-expiry
                     # window before giving up (drain ends them early).
                     "--exit-when-idle",
                     str(max(100, int(args.lease_timeout
                                      / max(args.poll, 0.01)) + 20))],
                    stdout=subprocess.DEVNULL))
        else:
            threads = spawn_local_agents(coordinator, args.agents,
                                         poll_s=args.poll)
        try:
            merged = coordinator.wait(cid, timeout=args.timeout)
        finally:
            coordinator.drain()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for t, _agent in threads:
                t.join(timeout=5)
            if server is not None:
                server.stop()
    elapsed = _time.perf_counter() - t0
    if merged is None:
        print(f"campaign {cid} did not finish within "
              f"{args.timeout:.0f}s", file=sys.stderr)
        return 1
    digest = merged_digest(merged)
    totals = merged["totals"]
    print(f"campaign {cid}: {totals['measurements']} measurements "
          f"across {len(merged['units'])} unit(s) in {elapsed:.1f}s")
    print(f"merged digest: {digest}")
    if args.verify:
        oracle = merged_digest(run_campaign_serial(spec))
        if oracle != digest:
            print(f"VERIFY FAILED: serial oracle {oracle} != fleet "
                  f"{digest}", file=sys.stderr)
            return 1
        print("verify: fleet output is byte-identical to the "
              "single-process oracle")
    return 0


def cmd_events(args) -> int:
    """Event-log maintenance (currently: retention gc)."""
    import os

    from repro.eventlog import EventLog, min_acked_seq
    log = EventLog(args.events_dir)
    cursors_dir = args.cursors if args.cursors is not None \
        else os.path.join(args.events_dir, "cursors")
    acked = min_acked_seq(cursors_dir)
    dropped = log.gc(keep_days=args.keep_days,
                     keep_bytes=args.keep_bytes, min_acked_seq=acked)
    for info in dropped:
        print(f"dropped {info.name}: events {info.first_seq}.."
              f"{info.last_seq} ({info.size_bytes} bytes, "
              f"ts {info.first_ts:.2f}..{info.last_ts:.2f})")
    kept = log.segments()
    boundary = "no registered consumers" if acked is None \
        else f"min acked seq {acked}"
    print(f"{len(dropped)} segment(s) dropped, {len(kept)} kept "
          f"({boundary})")
    return 0


def cmd_telemetry(args) -> int:
    """Run one instrumented pass through every pipeline layer."""
    telemetry.enable()
    from repro.measurement import (MeasurementEngine, build_atlas_platform,
                                   run_caida_prefix_scan)
    from repro.exec import pair_for
    from repro.observatory import (DEFAULT_POLICY_PACKAGE, MeasurementTask,
                                   PolicyWatchdog, schedule_cost_aware)
    from repro.outages import OutageSimulator

    with telemetry.span("cli.telemetry_smoke", seed=args.seed):
        topo = _world(args)
        routing, phys = pair_for(topo)
        engine = MeasurementEngine(topo, routing, phys)
        platform = build_atlas_platform(topo)
        probes = platform.probes[:args.probes]
        targets = [a.prefixes[0].network + 1
                   for a in sorted(topo.ases.values(),
                                   key=lambda x: x.asn)
                   if a.is_african and a.prefixes][:args.targets]
        with telemetry.span("cli.measure", probes=len(probes),
                            targets=len(targets)):
            for probe in probes:
                for target in targets:
                    engine.traceroute(probe, target)
        run_caida_prefix_scan(topo)
        OutageSimulator(topo).simulate(years=0.5)
        PolicyWatchdog(topo, phys).assess(
            DEFAULT_POLICY_PACKAGE, ["GH", "KE", "NG"])
        tasks = [MeasurementTask(f"smoke-trace-{i}", "traceroute",
                                 f"target-{i % 4}", app_bytes=150_000,
                                 runs_per_month=30, utility=2.0)
                 for i in range(12)]
        schedule_cost_aware(probes, tasks, monthly_budget_usd=20.0)
    print(telemetry.summary_report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="African Internet Observatory reproduction toolkit")
    parser.add_argument("--seed", type=int, default=2025,
                        help="world seed (default 2025)")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect telemetry and print a metrics/span "
                             "report after the command")
    parser.add_argument("--telemetry-out", metavar="PATH", default=None,
                        help="write the telemetry JSON report to PATH "
                             "(Prometheus text goes to PATH with a .prom "
                             "suffix); implies --telemetry")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="processes for parallel fan-out (default 1; "
                             "0 = one per core); results are identical "
                             "for any value")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="activate the fault-injection harness "
                             "(overrides $REPRO_FAULTS; grammar in "
                             "docs/robustness.md, e.g. "
                             "'seed=7,exec.worker_crash=1x1')")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("summary", help="world inventory").set_defaults(
        func=cmd_summary)
    p = sub.add_parser("detours", help="Fig. 2a/3 connectivity report")
    p.add_argument("--pairs", type=int, default=600)
    p.set_defaults(func=cmd_detours)
    sub.add_parser("coverage", help="Table 1 scanner coverage"
                   ).set_defaults(func=cmd_coverage)
    p = sub.add_parser("outages", help="Fig. 4 outage simulation")
    p.add_argument("--years", type=float, default=2.0)
    p.set_defaults(func=cmd_outages)
    p = sub.add_parser("cablecut", help="replay a March-2024 scenario")
    p.add_argument("--scenario", choices=("west", "east"),
                   default="west")
    p.set_defaults(func=cmd_cablecut)
    p = sub.add_parser("watchdog", help="§5.2 compliance report")
    p.add_argument("--countries", default="GH,NG,KE,ZA,CD,EG",
                   help="comma-separated ISO2 list (default sample)")
    p.set_defaults(func=cmd_watchdog)
    p = sub.add_parser("placement", help="set-cover probe placement")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_placement)
    p = sub.add_parser("fleet", help="§7.2 fleet economics")
    p.add_argument("--objective", choices=("ixp", "country"),
                   default="ixp")
    p.add_argument("--data-gb", type=float, default=2.0)
    p.set_defaults(func=cmd_fleet)
    p = sub.add_parser("save", help="save the world to a snapshot")
    p.add_argument("path")
    p.set_defaults(func=cmd_save)
    p = sub.add_parser("load-check", help="load + summarize a snapshot")
    p.add_argument("path")
    p.set_defaults(func=cmd_load_check)
    p = sub.add_parser("telemetry",
                       help="instrumented smoke run across every layer")
    p.add_argument("--probes", type=int, default=4,
                   help="probes used in the measurement pass")
    p.add_argument("--targets", type=int, default=12,
                   help="traceroute targets per probe")
    p.set_defaults(func=cmd_telemetry)
    p = sub.add_parser("serve",
                       help="run the Observatory as an HTTP service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8151,
                   help="TCP port (0 = pick a free one)")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="artifact store root (default "
                        "$REPRO_STORE_DIR or ~/.cache/repro/store)")
    p.add_argument("--store-cap-mb", type=float, default=256.0,
                   help="LRU size cap for the artifact store")
    p.add_argument("--job-workers", type=int, default=2,
                   help="threads draining the async job queue")
    p.add_argument("--job-deadline", type=float, default=300.0,
                   metavar="S",
                   help="per-job wall-clock deadline in seconds; the "
                        "reaper fails jobs that outlive it (default "
                        "300)")
    p.add_argument("--job-retries", type=int, default=1, metavar="N",
                   help="bounded retries per job after an exception "
                        "(default 1)")
    p.add_argument("--drain-timeout", type=float, default=8.0,
                   metavar="S",
                   help="seconds to drain in-flight jobs on shutdown "
                        "before failing them (default 8)")
    p.add_argument("--events-dir", default=None, metavar="DIR",
                   help="serve a measurement event log from DIR "
                        "(/v1/events, /v1/heartbeat, "
                        "/v1/heartbeat/stream)")
    p.add_argument("--access-log", default=None, metavar="PATH",
                   help="append one JSON line per request to PATH "
                        "('-' = stderr); off by default")
    p.add_argument("--hot-cache-bytes", type=int, default=None,
                   metavar="N",
                   help="byte budget for the in-memory hot tier over "
                        "the store (default 64 MiB; 0 disables it)")
    p.add_argument("--async", dest="async_server", action="store_true",
                   help="serve with the asyncio transport instead of "
                        "the threaded one (same handler core; built "
                        "for thousands of keep-alive connections)")
    p.set_defaults(func=cmd_serve)
    p = sub.add_parser("heartbeat",
                       help="always-on loop: generate events, append "
                            "to the log, detect anomalies")
    p.add_argument("events_dir", metavar="DIR",
                   help="event-log root directory (created if missing)")
    p.add_argument("--days", type=int, default=30,
                   help="simulated days to stream (default 30)")
    p.add_argument("--segment-events", type=int, default=4096,
                   help="events per columnar segment (default 4096)")
    p.set_defaults(func=cmd_heartbeat)
    p = sub.add_parser("coordinator",
                       help="run the fleet coordinator "
                            "(docs/distributed.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8251,
                   help="agent RPC port (0 = pick a free one)")
    p.add_argument("--http-port", type=int, default=None, metavar="PORT",
                   help="also serve the Observatory HTTP API with "
                        "/v1/fleet/* attached")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   metavar="S",
                   help="seconds of silence before an agent is LOST "
                        "and its leases released (default 10)")
    p.add_argument("--lease-timeout", type=float, default=30.0,
                   metavar="S",
                   help="seconds a unit lease lasts before "
                        "reassignment (default 30)")
    p.add_argument("--events-dir", default=None, metavar="DIR",
                   help="append campaign lifecycle events to the "
                        "event log at DIR")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="persist merged campaign artifacts in the "
                        "store at DIR")
    p.set_defaults(func=cmd_coordinator)
    p = sub.add_parser("agent",
                       help="run one measurement agent against a "
                            "coordinator")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="coordinator RPC address")
    p.add_argument("--agent-id", default=None,
                   help="agent identity (default agent-<pid>)")
    p.add_argument("--poll", type=float, default=0.2, metavar="S",
                   help="longest an idle lease waits at the coordinator "
                        "(default 0.2; must be below --timeout)")
    p.add_argument("--timeout", type=float, default=10.0, metavar="S",
                   help="per-RPC timeout (default 10)")
    p.add_argument("--exit-when-idle", type=int, default=None,
                   metavar="N",
                   help="exit after N consecutive no-work polls "
                        "(default: run until the coordinator drains)")
    p.set_defaults(func=cmd_agent)
    p = sub.add_parser("campaign",
                       help="dispatch a measurement campaign across "
                            "a fleet")
    p.add_argument("--agents", type=int, default=4,
                   help="agents to spawn in self-hosted mode "
                        "(default 4)")
    p.add_argument("--mode", choices=("procs", "threads"),
                   default="procs",
                   help="self-hosted agents as subprocesses (real "
                        "parallelism) or threads (default procs)")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="submit to a running coordinator instead of "
                        "self-hosting")
    p.add_argument("--scale", type=float, default=0.25,
                   help="world scale (default 0.25; 2.5 = continental)")
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--probes-per-shard", type=int, default=8)
    p.add_argument("--targets-per-probe", type=int, default=8)
    p.add_argument("--poll", type=float, default=0.05, metavar="S",
                   help="longest an idle lease waits at the coordinator "
                        "(default 0.05)")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   metavar="S")
    p.add_argument("--lease-timeout", type=float, default=30.0,
                   metavar="S")
    p.add_argument("--timeout", type=float, default=600.0, metavar="S",
                   help="overall campaign deadline (default 600)")
    p.add_argument("--verify", action="store_true",
                   help="re-run single-process and require "
                        "byte-identical output")
    p.set_defaults(func=cmd_campaign)
    p = sub.add_parser("events",
                       help="event-log maintenance (retention gc)")
    p.add_argument("action", choices=("gc",))
    p.add_argument("events_dir", metavar="DIR",
                   help="event-log root directory")
    p.add_argument("--keep-days", type=float, default=None,
                   metavar="DAYS",
                   help="drop packed segments more than DAYS simulated "
                        "days behind the log head")
    p.add_argument("--keep-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="drop oldest packed segments while total "
                        "segment bytes exceed BYTES")
    p.add_argument("--cursors", default=None, metavar="DIR",
                   help="consumer cursor directory (default "
                        "DIR/cursors); unconsumed events are never "
                        "dropped")
    p.set_defaults(func=cmd_events)
    p = sub.add_parser("store",
                       help="inspect/gc/verify the artifact store")
    p.add_argument("action", choices=("ls", "gc", "verify"))
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="artifact store root (default "
                        "$REPRO_STORE_DIR or ~/.cache/repro/store)")
    p.add_argument("--cap-mb", type=float, default=None,
                   help="override the size cap for gc")
    p.set_defaults(func=cmd_store)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro import faults
    from repro.exec import set_default_workers, suggested_workers
    args = build_parser().parse_args(argv)
    collect = args.telemetry or args.telemetry_out is not None
    if collect:
        telemetry.enable()
    if args.faults is not None:
        try:
            faults.configure(args.faults)
        except faults.FaultSpecError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2
    set_default_workers(args.workers if args.workers > 0
                        else suggested_workers())
    rc = args.func(args)
    if collect and args.func is not cmd_telemetry:
        print()
        print(telemetry.summary_report())
    if args.telemetry_out is not None:
        telemetry.write_report(args.telemetry_out)
        print(f"\nTelemetry report written to {args.telemetry_out} "
              f"(+ Prometheus text alongside)")
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
