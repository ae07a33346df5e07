"""Request plans: every request, world seed and campaign spec a run
issues is a pure function of the workload seed (and, for serve
workloads, of the connection index).

Plans are infinite iterators; a closed loop consumes as many entries
as its window allows, so two runs with one seed issue the same prefix.
Each varied property is drawn from its own :func:`balanced` stream, so
every run covers the mix evenly and a seed changes the order and the
worlds, not how much work a window holds.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Iterator
from urllib.parse import urlencode

#: Endpoints whose cold misses go through the job queue (``wait=1``).
EXPENSIVE = frozenset({"detours", "snapshot", "coverage", "outages",
                       "whatif"})
#: The six small analysis documents (0.3-1.6 KB) and the bulk download.
ANALYSIS_DOCS = ("summary", "placement", "detours", "coverage",
                 "outages", "whatif")
SNAPSHOT = "snapshot"
ALL_ENDPOINTS = ANALYSIS_DOCS + (SNAPSHOT,)

#: serve_warm mix: 70% analysis GETs, 10% snapshot, 20% revalidations.
WARM_MIX = (("get", 0.70), ("snapshot", 0.10), ("revalidate", 0.20))

#: World size the campaign workload runs on (``CONTINENTAL_SCALE``).
CAMPAIGN_SCALE = 2.5


def rng_for(seed: int, *labels: object) -> random.Random:
    """A ``Random`` derived from the workload seed and labels only."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return random.Random(int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "big"))


def balanced(rng: random.Random, items) -> Iterator:
    """``items`` forever, in shuffled blocks that each hold every item
    once."""
    items = list(items)
    while True:
        block = items[:]
        rng.shuffle(block)
        yield from block


@dataclass(frozen=True)
class Request:
    """One serve request: endpoint, world seed and query parameters."""

    endpoint: str
    world_seed: int
    params: tuple[tuple[str, str], ...] = ()
    revalidate: bool = False

    @property
    def query(self) -> dict[str, str]:
        """The endpoint parameters exactly as the server parses them."""
        return dict(self.params)

    @property
    def target(self) -> str:
        pairs = [("seed", str(self.world_seed)), *self.params]
        if self.endpoint in EXPENSIVE:
            pairs.append(("wait", "1"))
        return f"/v1/{self.endpoint}?{urlencode(pairs)}"


def warm_world(seed: int) -> int:
    """The one world serve_warm reads."""
    return 1000 + rng_for(seed, "warm-world").randrange(1_000_000)


def warm_artifacts(seed: int) -> list[Request]:
    """The seven prewarmed artifacts (default parameters, one world)."""
    world = warm_world(seed)
    return [Request(name, world) for name in ALL_ENDPOINTS]


def iter_warm(seed: int, conn: int) -> Iterator[Request]:
    """serve_warm requests for one keep-alive connection."""
    artifacts = warm_artifacts(seed)
    docs = balanced(rng_for(seed, "warm-docs", conn),
                    [a for a in artifacts if a.endpoint != SNAPSHOT])
    revalidations = balanced(rng_for(seed, "warm-304", conn), [
        Request(a.endpoint, a.world_seed, a.params, revalidate=True)
        for a in artifacts])
    snapshot = next(a for a in artifacts if a.endpoint == SNAPSHOT)
    picks = {"get": docs, "revalidate": revalidations,
             "snapshot": itertools.repeat(snapshot)}
    kinds = [kind for kind, share in WARM_MIX
             for _ in range(round(share * 10))]
    for kind in balanced(rng_for(seed, "warm", conn), kinds):
        yield next(picks[kind])


#: serve_cold parameter values per endpoint, each drawn evenly.
COLD_PARAMS = {
    "detours": ("pairs", [str(p) for p in range(200, 801, 50)]),
    "snapshot": ("pairs", [str(p) for p in range(200, 801, 50)]),
    "outages": ("years", ["0.5", "1.0", "1.5", "2.0", "3.0"]),
    "whatif": ("scenario", ["west", "east"]),
    "placement": ("budget", [str(b) for b in range(13)]),
}


def iter_cold(seed: int, conn: int) -> Iterator[Request]:
    """serve_cold requests: never-asked (endpoint, world, params).

    World seeds are unique per request across connections, so every
    request pays the whole cold path from ``build_world`` onwards."""
    endpoints = balanced(rng_for(seed, "cold", conn), ALL_ENDPOINTS)
    values = {name: (param, balanced(rng_for(seed, "cold", conn, name),
                                     choices))
              for name, (param, choices) in COLD_PARAMS.items()}
    base = rng_for(seed, "cold-base").randrange(1 << 17) << 12
    for i in itertools.count():
        endpoint = next(endpoints)
        params = ()
        if endpoint in values:
            param, stream = values[endpoint]
            params = ((param, next(stream)),)
        yield Request(endpoint, 1_000_000 + 2 * (base + i) + conn, params)


def campaign_world(seed: int) -> int:
    return 5000 + rng_for(seed, "campaign-world").randrange(1_000_000)


def warmup_spec(seed: int) -> dict:
    """The untimed spec that makes every agent build its world."""
    return {"seed": campaign_world(seed), "scale": CAMPAIGN_SCALE,
            "rounds": 1, "shards": 4, "probes_per_shard": 2,
            "targets_per_probe": 2}


def iter_campaigns(seed: int) -> Iterator[dict]:
    """Campaign specs on one continental world, submitted one at a time:
    rounds 1-3, shards 4-8, probes per shard and targets per probe 4-8."""
    world = campaign_world(seed)
    shapes = balanced(rng_for(seed, "campaign-shape"),
                      [(r, s) for r in range(1, 4) for s in range(4, 9)])
    probes = balanced(rng_for(seed, "campaign-probes"), range(4, 9))
    targets = balanced(rng_for(seed, "campaign-targets"), range(4, 9))
    for rounds, shards in shapes:
        yield {"seed": world, "scale": CAMPAIGN_SCALE, "rounds": rounds,
               "shards": shards, "probes_per_shard": next(probes),
               "targets_per_probe": next(targets)}
