"""Cross-commit pins of the determinism contract: same seed, same bytes.

The other determinism tests compare two runs of one checkout.  This
one compares the checkout against digests committed in
``tests/golden.json``:

* ``world_digest`` of two worlds, one at the default scale and one at
  ``CONTINENTAL_SCALE``;
* the sha256 of the canonical bytes of every service endpoint's
  payload at one seed, with default parameters;
* ``merged_digest(run_campaign_serial(spec))`` for the benchmark's
  warm-up campaign shape on a continental world and for one small
  multi-round spec.

A change that alters any of them, say one extra RNG draw in the world
generator, fails here even when every same-checkout test passes.

Re-pinning is deliberate.  Rewrite the manifest with::

    PYTHONPATH=src python tests/test_golden.py --write

and name each changed digest, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Optional

import pytest

from repro.fleet.campaign import (CampaignSpec, merged_digest,
                                  run_campaign_serial)
from repro.service.endpoints import ENDPOINTS
from repro.store.keys import canonical_bytes
from repro.topology import CONTINENTAL_SCALE, WorldParams, build_world
from repro.topology.serialize import world_digest

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

#: Seed the endpoint payloads are computed at.
ENDPOINT_SEED = 2025

#: name -> (seed, scale); ``None`` is the generator's default scale.
WORLDS: dict[str, tuple[int, Optional[float]]] = {
    "seed2025-default": (2025, None),
    "seed7-continental": (7, CONTINENTAL_SCALE),
}

#: name -> CampaignSpec fields.
CAMPAIGNS: dict[str, dict] = {
    # perfbench's warm-up shape (plan.warmup_spec) on a continental world.
    "warmup-continental": {"seed": 7, "scale": CONTINENTAL_SCALE,
                           "rounds": 1, "shards": 4,
                           "probes_per_shard": 2, "targets_per_probe": 2},
    # Small world, several rounds: probes re-measure targets across
    # rounds, so per-path reuse is on the pinned path.
    "small-rounds": {"seed": 2025, "scale": 0.1, "rounds": 3,
                     "shards": 3, "probes_per_shard": 3,
                     "targets_per_probe": 4},
}


def world_digest_of(name: str) -> str:
    seed, scale = WORLDS[name]
    params = (WorldParams(seed=seed) if scale is None
              else WorldParams(seed=seed, scale=scale))
    return world_digest(build_world(params=params))


def endpoint_digest_of(name: str) -> str:
    endpoint = ENDPOINTS[name]
    doc = endpoint.payload(ENDPOINT_SEED, endpoint.parse_params({}))
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def campaign_digest_of(name: str) -> str:
    return merged_digest(run_campaign_serial(
        CampaignSpec(**CAMPAIGNS[name])))


def compute_manifest() -> dict:
    return {
        "worlds": {name: {"seed": seed, "scale": scale,
                          "world_digest": world_digest_of(name)}
                   for name, (seed, scale) in WORLDS.items()},
        "endpoints": {"seed": ENDPOINT_SEED,
                      "sha256": {name: endpoint_digest_of(name)
                                 for name in ENDPOINTS}},
        "campaigns": {name: {"spec": spec,
                             "merged_digest": campaign_digest_of(name)}
                      for name, spec in CAMPAIGNS.items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_manifest_pins_what_this_file_computes(golden):
    assert {n: (w["seed"], w["scale"])
            for n, w in golden["worlds"].items()} == WORLDS
    assert golden["endpoints"]["seed"] == ENDPOINT_SEED
    assert sorted(golden["endpoints"]["sha256"]) == sorted(ENDPOINTS)
    assert {n: c["spec"] for n, c in golden["campaigns"].items()} \
        == CAMPAIGNS


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_world_digest_is_pinned(golden, name):
    assert world_digest_of(name) == golden["worlds"][name]["world_digest"]


@pytest.mark.parametrize("name", ["summary", "placement", "detours",
                                  "snapshot", "coverage", "outages",
                                  "whatif"])
def test_endpoint_bytes_are_pinned(golden, name):
    assert endpoint_digest_of(name) == golden["endpoints"]["sha256"][name]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_digest_is_pinned(golden, name):
    assert campaign_digest_of(name) == \
        golden["campaigns"][name]["merged_digest"]


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__.strip().splitlines()[0])
        print("usage: PYTHONPATH=src python tests/test_golden.py --write")
        return 2
    manifest = compute_manifest()
    GOLDEN.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
