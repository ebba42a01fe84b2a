"""The output-correctness gate.

At a seed with a committed digest, the SHA-256 of the canonical
``SimStats.asdict()`` JSON must equal it. At any other seed (a held-out
seed) the run must keep its invariants instead: every injected packet is
delivered or dropped, and the engine never raised ``DeadlockError``.
``machine512_sharded`` is held to ``machine512_uniform``'s digests: the
sharded engine must reproduce the serial run bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: Workloads checked against another workload's digests.
DIGEST_OF = {
    "machine512_sharded": "machine512_uniform",
    "machine512_sharded_inline": "machine512_uniform",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests(path: str = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    with open(path) as handle:
        return json.load(handle)


def expected_digest(
    digests: Dict[str, Dict[str, str]], workload: str, seed: int, size: str
) -> Optional[str]:
    """The committed digest for this run, or None at a held-out seed."""
    if size != "full":
        return None
    return digests.get(DIGEST_OF.get(workload, workload), {}).get(str(seed))


def invariants(stats: dict) -> Tuple[bool, str]:
    """Every injected packet was delivered or dropped."""
    if stats["delivered"] + stats["dropped"] != stats["injected"]:
        return False, (
            f"delivered {stats['delivered']} + dropped {stats['dropped']} "
            f"!= injected {stats['injected']}"
        )
    return True, "invariants"


def check(
    expected: Optional[str], observed: str, stats: dict
) -> Tuple[bool, str]:
    """(passed, reason) for one run's output: the invariants, and the
    digest where one is committed."""
    ok, reason = invariants(stats)
    if not ok or expected is None:
        return ok, reason
    if observed != expected:
        return False, f"stats digest {observed[:12]} != committed {expected[:12]}"
    return True, "digest"
