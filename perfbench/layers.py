"""Per-layer metrics from the traced run's spans.

Every metric covers spans that start inside the timed window, except
``fleet.world_s``, which is set-up work by definition.  A layer's busy
time is the sum of its spans' self time: a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Fleet RPC ops a timed campaign issues.
RPC_OPS = ("lease", "heartbeat", "submit", "campaign", "campaign_status")

#: ``<layer>.busy_s`` metric -> span names counted as that layer.
BUSY = {
    "routing.busy_s": ("routing.tables",),
    "measurement.busy_s": ("measurement.traceroute", "measurement.ping"),
    "datasets.busy_s": ("datasets.collect_snapshot",),
    "analysis.busy_s": ("analysis.analyze_snapshot",
                        "analysis.coverage_table"),
    "outages.busy_s": ("outages.simulate",),
    "observatory.busy_s": ("observatory.whatif",
                           "observatory.ixp_cover_hosts"),
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("service.transport_ms", "ms"), ("service.dispatch_ms", "ms"),
    ("service.hot_hit_ratio", "ratio"), ("service.job_wait_ms", "ms"),
    ("service.job_retries", "count"), ("service.compute_ms", "ms"),
    ("service.world_hit_ratio", "ratio"),
    ("store.get_calls", "count"), ("store.get_ms", "ms"),
    ("store.put_ms", "ms"), ("store.put_bytes", "bytes"),
    ("store.encode_ms", "ms"),
    ("topology.builds", "count"), ("topology.build_ms", "ms"),
    ("exec.context_builds", "count"), ("exec.context_ms", "ms"),
    ("exec.map_tasks_overlap", "count"),
    ("routing.tables", "count"), ("routing.busy_s", "s"),
    ("measurement.traceroutes", "count"), ("measurement.pings", "count"),
    ("measurement.busy_s", "s"),
    ("datasets.busy_s", "s"), ("analysis.busy_s", "s"),
    ("outages.busy_s", "s"), ("observatory.busy_s", "s"),
    *((f"fleet.rpc_calls.{op}", "count") for op in RPC_OPS),
    *((f"fleet.rpc_ms.{op}", "ms") for op in RPC_OPS),
    ("fleet.lease_useful_ratio", "ratio"),
    ("fleet.agent_busy_share", "ratio"),
    ("fleet.unit_ms", "ms"), ("fleet.merge_ms", "ms"),
    ("fleet.world_s", "s"),
    ("eventlog.appends", "count"), ("eventlog.append_ms", "ms"),
    ("proc.cpu_ms_per_op", "ms"),
    ("trace.overhead_p50_ms", "ms"), ("trace.overhead_rate_pct", "%"),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "tag", "role",
                 "children")

    def __init__(self, row, role: str) -> None:
        self.id, self.parent, self.name, self.start, self.end, \
            self.tag = row
        self.role = role
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


def link(spans_by_role: dict[str, list]) -> list[Span]:
    """Span objects with ``children`` filled in, per process."""
    out: list[Span] = []
    for role, rows in spans_by_role.items():
        spans = [Span(row, role) for row in rows]
        by_id = {s.id: s for s in spans}
        for s in spans:
            parent = by_id.get(s.parent)
            if parent is not None:
                parent.children.append(s)
        out.extend(spans)
    return out


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(span: Span) -> float:
    """Duration minus the part of it that children cover."""
    inside = [(max(c.start, span.start), min(c.end, span.end))
              for c in span.children]
    return span.duration - covered([iv for iv in inside
                                    if iv[1] > iv[0]])


def _median_ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1000.0 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans_by_role: dict[str, list], window: tuple[float, float],
              client: list, stats: dict, workload: str) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric except the ``proc``/``trace`` ones."""
    every = link(spans_by_role)
    t0, t1 = window
    spans = [s for s in every if t0 <= s.start <= t1]
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    m: dict[str, float] = {}

    # -- service ---------------------------------------------------------
    dispatch = {s.tag: s for s in named["service.dispatch"]
                if isinstance(s.tag, str) and s.tag.startswith("t")}
    if workload.startswith("serve"):
        m["service.transport_ms"] = _median_ms(
            latency - dispatch[rid].duration
            for rid, latency in client if rid in dispatch)
    else:
        m["service.transport_ms"] = 0.0
    m["service.dispatch_ms"] = _median_ms(
        s.duration for s in dispatch.values())
    hot = [s.tag for s in named["service.hot_get"]]
    m["service.hot_hit_ratio"] = _ratio(hot.count("hit"), len(hot))
    computes = {}
    for s in named["service.compute_store"]:
        for child in s.children:
            if child.name == "service.compute":
                computes.setdefault(s.tag, child.start)
    m["service.job_wait_ms"] = _median_ms(
        computes[s.tag] - s.start for s in named["service.job_submit"]
        if s.tag in computes)
    jobs = stats.get("/v1/jobs", {}).get("jobs", [])
    m["service.job_retries"] = float(sum(max(0, j["attempts"] - 1)
                                         for j in jobs))
    m["service.compute_ms"] = _median_ms(
        s.duration for s in named["service.compute"])
    worlds = named["service.world_for"]
    m["service.world_hit_ratio"] = _ratio(
        sum(1 for s in worlds if not any(
            c.name == "topology.build_world" for c in s.children)),
        len(worlds))

    # -- store -----------------------------------------------------------
    m["store.get_calls"] = float(len(named["store.get"]))
    m["store.get_ms"] = _median_ms(s.duration for s in named["store.get"])
    m["store.put_ms"] = _median_ms(s.duration for s in named["store.put"])
    puts = [s.tag for s in named["store.put"]]
    m["store.put_bytes"] = float(statistics.median(puts)) if puts else 0.0
    m["store.encode_ms"] = _median_ms(
        s.duration for s in named["store.encode"])

    # -- topology, exec, routing, measurement, analysis layers ----------
    builds = named["topology.build_world"]
    m["topology.builds"] = float(len(builds))
    m["topology.build_ms"] = _median_ms(s.duration for s in builds)
    contexts = named["exec.context_build"]
    m["exec.context_builds"] = float(len(contexts))
    m["exec.context_ms"] = _median_ms(s.duration for s in contexts)
    m["exec.map_tasks_overlap"] = float(sum(
        1 for s in named["exec.map_tasks"] if s.tag == "overlap"))
    routing_ids = {(s.role, s.id) for s in named["routing.tables"]}
    m["routing.tables"] = float(sum(
        s.tag for s in named["routing.tables"]
        if (s.role, s.parent) not in routing_ids))
    m["measurement.traceroutes"] = float(
        len(named["measurement.traceroute"]))
    m["measurement.pings"] = float(len(named["measurement.ping"]))
    for metric, names in BUSY.items():
        m[metric] = float(sum(self_time(s) for name in names
                              for s in named[name]))

    # -- fleet -----------------------------------------------------------
    rpc: dict[str, list[Span]] = defaultdict(list)
    for s in named["fleet.rpc"]:
        rpc[str(s.tag).split(":")[0]].append(s)
    for op in RPC_OPS:
        m[f"fleet.rpc_calls.{op}"] = float(len(rpc[op]))
        m[f"fleet.rpc_ms.{op}"] = _median_ms(s.duration for s in rpc[op])
    m["fleet.lease_useful_ratio"] = _ratio(
        sum(1 for s in rpc["lease"] if s.tag == "lease:granted"),
        len(rpc["lease"]))
    units = named["fleet.run_unit"]
    agents = {s.role for s in every if s.role.startswith("agent")}
    if workload == "campaign" and client and agents:
        open_time = covered(client)
        busy = sum(covered([(max(u.start, a), min(u.end, b))
                            for u in units if u.role == role
                            for a, b in client
                            if min(u.end, b) > max(u.start, a)])
                   for role in agents)
        m["fleet.agent_busy_share"] = _ratio(busy,
                                             len(agents) * open_time)
    else:
        m["fleet.agent_busy_share"] = 0.0
    m["fleet.unit_ms"] = _median_ms(s.duration for s in units)
    m["fleet.merge_ms"] = _median_ms(
        s.duration for s in named["fleet.merge"])
    m["fleet.world_s"] = float(sum(s.duration for s in every
                                   if s.name == "fleet.world"))
    appends = named["eventlog.append"]
    m["eventlog.appends"] = float(len(appends))
    m["eventlog.append_ms"] = _median_ms(s.duration for s in appends)
    return m
