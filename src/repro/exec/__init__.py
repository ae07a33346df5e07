"""repro.exec — parallel execution and shared computation.

Three pieces:

* :mod:`repro.exec.pool` — a deterministic fork-based worker pool.
  Independent units (routing tables, traceroute batches, monitored
  country-days, what-if scenarios) derive per-unit RNGs from the world
  seed, so serial and parallel runs are byte-identical.
* :mod:`repro.exec.shm` — shared-memory batch blocks: workers write
  result columns into a segment the parent published before forking,
  so big results never cross the pipe as pickles.
* :mod:`repro.exec.context` — a shared routing context caching one
  ``BGPRouting``/``PhysicalNetwork`` pair per topology instead of
  rebuilding them in every campaign, benchmark and CLI command.

See ``docs/performance.md`` for the workers flag, determinism
guarantees, the shared-memory data plane, and cache semantics.
"""

from repro.exec.context import (
    CONTEXT,
    RoutingContext,
    pair_for,
    physical_for,
    precompute_for,
    routing_for,
)
from repro.exec.pool import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    MIN_CHUNKSIZE,
    TransientTaskError,
    chunk_plan,
    current_payload,
    current_shared,
    fork_available,
    get_default_workers,
    in_worker,
    map_tasks,
    resolve_workers,
    set_default_workers,
    suggested_workers,
)
from repro.exec.shm import (
    SEGMENT_PREFIX,
    SharedColumnBlock,
    active_segments,
    shm_supported,
    system_segments,
)

__all__ = [
    "CONTEXT", "RoutingContext", "pair_for", "physical_for",
    "precompute_for", "routing_for",
    "DEFAULT_RETRIES", "DEFAULT_TIMEOUT_S", "MIN_CHUNKSIZE",
    "TransientTaskError",
    "chunk_plan", "current_payload", "current_shared",
    "fork_available",
    "get_default_workers", "in_worker", "map_tasks", "resolve_workers",
    "set_default_workers", "suggested_workers",
    "SEGMENT_PREFIX", "SharedColumnBlock", "active_segments",
    "shm_supported", "system_segments",
]
