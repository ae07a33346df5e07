"""Shared state for the benchmark harness.

Each ``bench_*`` module regenerates one of the paper's tables/figures:
it times the analysis with pytest-benchmark and emits the same
rows/series the paper reports, both to stdout and to
``benchmarks/results.txt`` (append-mode, truncated at session start) so
EXPERIMENTS.md can quote measured numbers.

The session also writes ``benchmarks/BENCH_telemetry.json``: wall-clock
time per benchmark always, plus the full metrics snapshot and span
trees when telemetry is on (``REPRO_TELEMETRY=1``).  That file is the
machine-readable perf baseline future PRs diff against — see
``docs/observability.md``.

Pass ``--workers N`` to fan measurement batches out over N processes
(0 = one per core).  Results are byte-identical for any N — see
``docs/performance.md`` and ``scripts/micro.py``, which records the
serial/parallel fingerprints in ``benchmarks/BENCH_micro.json``.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro import build_world, telemetry
from repro.datasets import build_ixp_directory, collect_snapshot
from repro.exec import (
    get_default_workers,
    pair_for,
    set_default_workers,
    suggested_workers,
)
from repro.measurement import (
    GeolocationService,
    MeasurementEngine,
    build_atlas_platform,
)

RESULTS_PATH = pathlib.Path(__file__).parent / "results.txt"
TELEMETRY_PATH = pathlib.Path(__file__).parent / "BENCH_telemetry.json"
DEFAULT_SEED = 2025

#: nodeid -> per-benchmark record, written at session finish.
_TELEMETRY_RECORDS: dict[str, dict] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--workers", type=int, default=1, metavar="N",
        help="processes for parallel fan-out (default 1; 0 = one per "
             "core); benchmark outputs are identical for any value")


def pytest_configure(config):
    workers = config.getoption("--workers", default=1)
    set_default_workers(workers if workers > 0 else suggested_workers())


def pytest_sessionstart(session):
    RESULTS_PATH.write_text("")


def pytest_sessionfinish(session, exitstatus):
    doc = {
        "format": "repro-bench-telemetry/1",
        "seed": DEFAULT_SEED,
        "telemetry_enabled": telemetry.enabled(),
        "workers": get_default_workers(),
        "benchmarks": _TELEMETRY_RECORDS,
    }
    if telemetry.enabled():
        doc["metrics"] = telemetry.REGISTRY.snapshot()
    TELEMETRY_PATH.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.fixture(autouse=True)
def _bench_telemetry(request):
    """Record wall time (and spans, when telemetry is on) per bench."""
    spans_before = len(telemetry.COLLECTOR.roots())
    start = time.perf_counter()
    yield
    record: dict = {
        "duration_s": round(time.perf_counter() - start, 6)}
    if telemetry.enabled():
        roots = telemetry.COLLECTOR.roots()[spans_before:]
        record["spans"] = [root.to_dict() for root in roots]
    _TELEMETRY_RECORDS[request.node.nodeid] = record


def emit(block: str) -> None:
    """Print a result block and archive it for EXPERIMENTS.md."""
    text = block.rstrip() + "\n\n"
    print("\n" + text, end="")
    with RESULTS_PATH.open("a") as fh:
        fh.write(text)


@pytest.fixture(scope="session")
def topo():
    return build_world(seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def routing(topo):
    return pair_for(topo)[0]


@pytest.fixture(scope="session")
def phys(topo):
    return pair_for(topo)[1]


@pytest.fixture(scope="session")
def engine(topo, routing, phys):
    return MeasurementEngine(topo, routing, phys)


@pytest.fixture(scope="session")
def atlas(topo):
    return build_atlas_platform(topo)


@pytest.fixture(scope="session")
def geo(topo):
    return GeolocationService(topo)


@pytest.fixture(scope="session")
def directory(topo):
    return build_ixp_directory(topo)


@pytest.fixture(scope="session")
def snapshot(topo, engine, atlas):
    return collect_snapshot(topo, engine, atlas, max_pairs=1500)
