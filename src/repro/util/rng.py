"""Deterministic random-number derivation.

Every stochastic component of the simulator derives its own RNG from the
world seed plus a string path (e.g. ``derive_rng(seed, "topology",
"ixp-members")``).  This keeps components independent: adding randomness
to one module does not perturb another, and the same seed always yields
the same world.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(seed: int, *names: str) -> int:
    """Derive a child seed from ``seed`` and a path of component names.

    The digest covers ``"<seed>/<name>/<name>..."`` as UTF-8, hashed in
    one call."""
    path = "/".join((str(int(seed)), *names)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(path).digest()[:8], "big")


def derive_rng(seed: int, *names: str) -> random.Random:
    """A ``random.Random`` seeded deterministically from ``seed`` + path."""
    return random.Random(derive_seed(seed, *names))
