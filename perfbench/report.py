"""End-to-end metric assembly: medians, the fixed tail percentile and
failure accounting."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

#: Tail percentile per workload: the highest that leaves at least ten
#: samples beyond it at the benchmark's run length (see README.md).
TAIL_Q = {"serve_warm": 0.99, "serve_cold": 0.85, "campaign": 0.80}

#: End-to-end metrics and their units, in report order.
END_TO_END = (("p50_ms", "ms"), ("tail_ms", "ms"), ("rate_per_s", "1/s"),
              ("setup_s", "s"), ("rss_mb", "MiB"))


def nearest_rank(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of sorted samples by the nearest-rank rule."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(ordered: list[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` nearest-rank value."""
    value = nearest_rank(ordered, q)
    return sum(1 for x in ordered if x > value)


@dataclass
class Phase:
    """What one measured phase (setup + timed window) produced."""

    latencies: list[float] = field(default_factory=list)  # ok ops, s
    failures: Counter = field(default_factory=Counter)
    attempted: int = 0
    work: float = 0.0            # ok responses or merged measurements
    window: tuple[float, float] = (0.0, 0.0)
    setups: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    spans: dict = field(default_factory=dict)       # role -> spans
    client: list = field(default_factory=list)      # traced matching
    stats: dict = field(default_factory=dict)       # public stats routes

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def window_s(self) -> float:
        return self.window[1] - self.window[0]

    def count(self, kind: str | None) -> None:
        self.attempted += 1
        if kind is not None:
            self.failures[kind] += 1


def end_to_end(phase: Phase, workload: str) -> dict[str, float]:
    """The five end-to-end values of a phase."""
    if not phase.latencies:
        raise RuntimeError("no operation succeeded")
    ordered = sorted(phase.latencies)
    return {"p50_ms": statistics.median(ordered) * 1000.0,
            "tail_ms": nearest_rank(ordered, TAIL_Q[workload]) * 1000.0,
            "rate_per_s": phase.work / phase.window_s,
            "setup_s": statistics.median(phase.setups),
            "rss_mb": phase.rss_mb}
