"""Traced-mode bootstrap: ``bootstrap.py SPANS_OUT <repro argv...>``.

Installs span-recording wrappers around each layer's public entry
points, runs ``repro.cli.main(argv)`` unchanged, and writes the spans
to ``SPANS_OUT`` (JSON) when the command returns.  Names are patched
where callers look them up: module globals that callers import by
name (``endpoints.build_world``, ``fleet.campaign.build_world``, ...)
and class attributes (``ArtifactStore.get``, ...).  The program's own
telemetry settings are left as deployed.

A span is ``[id, parent_id, name, start, end, tag]``: ``parent_id`` is
the innermost wrapped call on the same thread (0 for none), times are
``time.perf_counter()`` seconds (``CLOCK_MONOTONIC``, shared by every
process on the host), and ``tag`` links spans across threads and
processes — the bench request id on dispatch spans, the artifact key
digest on job submit and compute spans, the spec digest, round and
shard on fleet unit spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

_SPANS: list = []
_IDS = itertools.count(1)
_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = [0]
    return stack


def wrap(owner, attr: str, name: str, tag=None, keep=None) -> None:
    """Record a span around ``owner.attr``.

    ``tag(args, kwargs, result)`` labels the span.  ``keep(before,
    args, result)`` drops calls for which it is falsy, with ``before``
    the value of ``keep.before(args)`` taken on entry; a non-boolean
    verdict (say, the number of tables a call computed) becomes the tag
    when ``tag`` is unset."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        stack = _stack()
        span_id = next(_IDS)
        parent = stack[-1]
        before = keep.before(args) if keep is not None else None
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            verdict = True if keep is None else keep(before, args, result)
            if verdict:
                label = tag(args, kwargs, result) if tag else \
                    (None if verdict is True else verdict)
                _SPANS.append((span_id, parent, name, start, end, label))

    setattr(owner, attr, wrapper)


class _Grew:
    """``keep`` verdict: how much the call grew ``getter(args)``."""

    def __init__(self, getter) -> None:
        self.getter = getter

    def before(self, args):
        return self.getter(args)

    def __call__(self, before, args, result) -> int:
        return self.getter(args) - before


class _Overlap:
    """``keep`` verdict that tags calls starting while another call it
    watches is running in the same process ``overlap``."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.active = 0

    def before(self, args) -> bool:
        with self.lock:
            self.active += 1
            return self.active > 1

    def __call__(self, before, args, result):
        with self.lock:
            self.active -= 1
        return "overlap" if before else True


def _header(headers, name: str):
    for key, value in (headers or {}).items():
        if key.lower() == name:
            return value
    return None


def install() -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    mod = importlib.import_module
    service = mod("repro.service.server")
    endpoints = mod("repro.service.endpoints")
    jobs = mod("repro.service.jobs")
    hotcache = mod("repro.service.hotcache")
    disk = mod("repro.store.disk")
    context = mod("repro.exec.context")
    bgp = mod("repro.routing.bgp")
    delta = mod("repro.routing.delta")
    traceroute = mod("repro.measurement.traceroute")
    datasets = mod("repro.datasets")
    analysis = mod("repro.analysis")
    outages = mod("repro.outages.engine")
    whatif = mod("repro.observatory.whatif")
    observatory = mod("repro.observatory")
    campaign = mod("repro.fleet.campaign")
    coordinator = mod("repro.fleet.coordinator")
    agent = mod("repro.fleet.agent")
    rpc = mod("repro.fleet.rpc")
    eventlog = mod("repro.eventlog.log")

    def request_id(args, kwargs, result):
        return _header(kwargs.get("headers") or
                       (args[3] if len(args) > 3 else None),
                       "x-bench-request")

    Service = service.ObservatoryService
    wrap(Service, "dispatch", "service.dispatch", tag=request_id)
    wrap(Service, "_compute_and_store", "service.compute_store",
         tag=lambda a, k, r: a[2].digest)
    wrap(endpoints.Endpoint, "payload", "service.compute")
    wrap(endpoints, "world_for", "service.world_for")
    wrap(endpoints, "build_world", "topology.build_world")
    wrap(campaign, "build_world", "topology.build_world")
    wrap(hotcache.HotCache, "get", "service.hot_get",
         tag=lambda a, k, r: "miss" if r is None else "hit")
    wrap(jobs.JobQueue, "submit", "service.job_submit",
         tag=lambda a, k, r: a[1])
    wrap(disk.ArtifactStore, "get", "store.get")
    wrap(disk.ArtifactStore, "put", "store.put",
         tag=lambda a, k, r: len(a[2]))
    for owner in (service, coordinator):
        wrap(owner, "canonical_bytes", "store.encode")
    wrap(context.RoutingContext, "pair", "exec.context_build",
         keep=_Grew(lambda a: a[0].builds))
    overlap = _Overlap()
    for owner in ("repro.exec", "repro.exec.pool", "repro.datasets.atlas",
                  "repro.observatory.whatif", "repro.observatory.campaigns",
                  "repro.observatory.runner", "repro.fleet.campaign"):
        wrap(mod(owner), "map_tasks", "exec.map_tasks", keep=overlap)
    tables = _Grew(lambda a: len(a[0]._tables))
    for cls in (bgp.BGPRouting, delta.DeltaRouting):
        for attr in ("routes_to", "precompute"):
            if attr in vars(cls):
                wrap(cls, attr, "routing.tables", keep=tables)
    wrap(traceroute.MeasurementEngine, "traceroute",
         "measurement.traceroute")
    wrap(traceroute.MeasurementEngine, "ping", "measurement.ping")
    wrap(datasets, "collect_snapshot", "datasets.collect_snapshot")
    wrap(analysis, "analyze_snapshot", "analysis.analyze_snapshot")
    wrap(analysis, "build_coverage_table", "analysis.coverage_table")
    wrap(outages.OutageSimulator, "simulate", "outages.simulate")
    wrap(whatif.WhatIfCutCables, "country_severities",
         "observatory.whatif")
    wrap(observatory, "ixp_cover_hosts", "observatory.ixp_cover_hosts")
    wrap(rpc, "dispatch", "fleet.rpc", tag=_rpc_tag)
    wrap(agent, "run_unit", "fleet.run_unit",
         tag=lambda a, k, r: f"{a[1].digest[:8]}:{a[2]}:{a[3].index}")
    wrap(coordinator, "merge_results", "fleet.merge")
    for owner in (coordinator, agent):
        wrap(owner, "bundle_for", "fleet.world")
    wrap(eventlog.EventLog, "append", "eventlog.append")


def _rpc_tag(args, kwargs, result):
    op = args[1].get("op") if isinstance(args[1], dict) else None
    if op == "lease":
        granted = isinstance(result, dict) and result.get("unit")
        return "lease:granted" if granted else "lease:idle"
    return str(op)


def dump(path: str) -> None:
    spans = list(_SPANS)
    with open(path, "w") as fh:
        json.dump({"argv": sys.argv[2:], "spans": spans}, fh)


def main(argv: list[str]) -> int:
    spans_out, repro_argv = argv[0], argv[1:]
    install()
    from repro.cli import main as repro_main
    try:
        return repro_main(repro_argv)
    finally:
        dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
