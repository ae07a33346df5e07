"""Oracle checks: every output is compared with the serial library.

Serve responses must carry exactly
``canonical_bytes(ENDPOINTS[name].payload(seed, params))`` and every 304
the ETag of those bytes; a campaign's merged artifact must hash to
``merged_digest(run_campaign_serial(spec))``.  All oracle work runs in
the client process and outside timed windows.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from perfbench.plan import Request
from perfbench.wire import Reply

#: Failure kinds, in report order.  ``malformed`` covers response heads
#: that cannot be framed; ``error`` any other connection failure.
FAILURE_KINDS = ("status", "bytes", "stale", "etag", "malformed",
                 "timeout", "error", "unfinished", "digest")


def oracle_etag(payload: bytes) -> str:
    return '"' + hashlib.sha256(payload).hexdigest() + '"'


def serve_verdict(reply: Reply, expected: tuple[bytes, str],
                  revalidate: bool) -> Optional[str]:
    """``None`` for a correct response, else its failure kind.

    ``expected`` is the oracle's ``(bytes, etag)``.  A revalidation may
    be answered 304 (ETag must be the oracle's) or with the full correct
    bytes; a labelled stale 200 fails even if its bytes happen to be
    valid for some other key."""
    body, etag = expected
    if reply.status == 304:
        if not revalidate:
            return "status"
        return None if reply.headers.get("etag") == etag else "etag"
    if reply.status != 200:
        return "status"
    if reply.headers.get("x-repro-cache") == "stale":
        return "stale"
    return None if reply.body == body else "bytes"


class ServeOracle:
    """Memoized expected ``(bytes, etag)`` per request (same target,
    same bytes)."""

    def __init__(self) -> None:
        self._memo: dict[tuple, tuple[bytes, str]] = {}

    def expected(self, request: Request) -> tuple[bytes, str]:
        key = (request.endpoint, request.world_seed, request.params)
        found = self._memo.get(key)
        if found is None:
            from repro.service.endpoints import ENDPOINTS
            from repro.store import canonical_bytes
            endpoint = ENDPOINTS[request.endpoint]
            params = endpoint.parse_params(request.query)
            payload = canonical_bytes(
                endpoint.payload(request.world_seed, params))
            found = self._memo[key] = (payload, oracle_etag(payload))
        return found


class CampaignOracle:
    """Memoized serial-oracle digest per campaign spec."""

    def __init__(self) -> None:
        self._memo: dict[tuple, str] = {}

    def digest(self, spec: dict) -> str:
        key = tuple(sorted(spec.items()))
        digest = self._memo.get(key)
        if digest is None:
            from repro.fleet import (CampaignSpec, merged_digest,
                                     run_campaign_serial)
            digest = merged_digest(
                run_campaign_serial(CampaignSpec.from_dict(spec)))
            self._memo[key] = digest
        return digest
