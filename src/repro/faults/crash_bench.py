"""``repro crash-bench``: the exhaustive crash matrix as a CI gate.

Runs :func:`repro.faults.crash.crash_matrix` for a set of codes and
folds the results into one canonical-JSON payload whose SHA-256 is the
*report hash*.  The payload is counts only — boundaries, site
histograms, repair totals, per-scenario verdicts — never timings, so
the hash is bit-stable across machines; the ``--smoke`` configuration
is pinned in :data:`CRASH_SMOKE_HASH` and diffed in CI, turning any
behavioral drift of the journal/recovery protocol (a new crash site,
a scenario that stops recovering) into a loud failure instead of a
silent one.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence

from ..exceptions import CertificationError
from .crash import crash_matrix

#: The smoke configuration: two codes, small prime, short trace.
SMOKE_CODES = ("HV", "RDP")
SMOKE_P = 5
SMOKE_OPS = 8
SMOKE_SEED = 0

#: Pinned report hash of ``run_crash_bench(smoke=True)``.  Recompute
#: with ``repro crash-bench --smoke`` after an *intentional* protocol
#: change and update this constant in the same commit.
CRASH_SMOKE_HASH = "d8ad625c6522f2b09ba6370829061007d6e7f22ad52176751035edf3e1bbd5d0"


def run_crash_bench(
    codes: Sequence[str] | None = None,
    p: int = SMOKE_P,
    *,
    element_size: int = 16,
    cache_stripes: int = 2,
    engine: str = "fused",
    ops: int = SMOKE_OPS,
    seed: int = SMOKE_SEED,
    smoke: bool = False,
) -> dict:
    """Run the crash matrix per code and return the hashable payload."""
    # Deferred: the registry pulls in every code class, and importing
    # it at module scope closes a codes -> array -> faults cycle.
    from ..codes.registry import available_codes, get_code

    if smoke:
        codes, p, ops, seed = SMOKE_CODES, SMOKE_P, SMOKE_OPS, SMOKE_SEED
    elif codes is None:
        codes = available_codes()
    matrices = []
    for name in codes:
        code = get_code(name, p)
        matrices.append(
            crash_matrix(
                code,
                element_size=element_size,
                cache_stripes=cache_stripes,
                engine=engine,
                ops=ops,
                seed=seed,
            ).to_dict()
        )
    payload = {
        "bench": "crash-matrix",
        "p": p,
        "element_size": element_size,
        "cache_stripes": cache_stripes,
        "engine": engine,
        "ops": ops,
        "seed": seed,
        "smoke": smoke,
        "matrices": matrices,
        "all_ok": all(m["all_ok"] for m in matrices),
        "total_scenarios": sum(m["boundaries"] for m in matrices),
    }
    payload["report_hash"] = report_hash(payload)
    return payload


def report_hash(payload: dict) -> str:
    """SHA-256 over the canonical JSON, ignoring any embedded hash."""
    scrubbed = {k: v for k, v in payload.items() if k != "report_hash"}
    canonical = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def check_smoke_hash(payload: dict) -> None:
    """Raise :class:`CertificationError` when the smoke pin drifted."""
    actual = payload["report_hash"]
    if actual != CRASH_SMOKE_HASH:
        raise CertificationError(
            "crash-bench smoke report drifted from its pin:\n"
            f"  pinned:  {CRASH_SMOKE_HASH}\n"
            f"  actual:  {actual}\n"
            "If the journal/recovery protocol changed intentionally, "
            "update CRASH_SMOKE_HASH in repro/faults/crash_bench.py "
            "in the same commit."
        )


def render_report(payload: dict) -> str:
    lines = [
        f"crash matrix: {len(payload['matrices'])} code(s) at p={payload['p']}, "
        f"{payload['total_scenarios']} power cuts"
    ]
    for m in payload["matrices"]:
        verdict = "all recovered" if m["all_ok"] else "FAILURES"
        lines.append(
            f"  {m['code']:<10} {m['boundaries']:>4} boundaries  "
            f"{m['stripes_repaired']:>4} parity repairs  "
            f"{m['torn_records']:>3} torn records  -> {verdict}"
        )
        for failure in m["failures"]:
            lines.append(
                f"    FAIL crash_at={failure['crash_at']} site={failure['site']}"
            )
    lines.append(f"report hash: {payload['report_hash']}")
    return "\n".join(lines)
