"""Static code certification: prove the paper's claims without data.

Every headline property of an XOR array code — MDS-ness, chain
lengths, parity-load balance, update complexity, recovery-chain
parallelism — is a function of the chain structure alone.  This module
derives them from :class:`~repro.codes.base.ArrayCode.chains` and the
GF(2) parity-check matrix, never encoding a stripe:

- **MDS verdict**: the parity-check submatrix of every ``C(n, 2)``
  double-column erasure must have full column rank (the same
  linear-algebra argument EVENODD-family constructions use).
- **Chain-length profile**: the full length multiset per parity
  flavor; HV's claim is that every chain has length ``p - 2``.
- **Parity-load vector**: parity elements per disk (Section III's
  balance claim), cross-checked against :mod:`repro.metrics.balance`.
- **Update complexity**: min/mean/max parity writes per data-element
  update (Table III), from the dependency closure.
- **Double-failure structure**: structural peeling over every failed
  pair yields the recovery-chain parallelism (Algorithm 1's four
  chains for HV) and the longest-chain round count ``Lc``,
  cross-checked against the compiled recovery plans
  (:func:`repro.recovery.cost.repair_cost`) when every pair peels.

The result is a :class:`CodeCertificate` that serializes to *canonical
JSON* with a SHA-256 hash.  Hashes for the smoke set are pinned in
:mod:`repro.static.pins`; any layout regression in any code changes a
hash and fails CI without running a single stripe through the encoder.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from ..codes.base import ArrayCode
from ..codes.registry import available_codes, get_code
from ..exceptions import CertificationError
from ..metrics.balance import is_parity_balanced, parity_distribution
from ..recovery.cost import repair_cost
from ..recovery.peeling import peel_schedule
from ..utils import EVALUATION_PRIMES, pairs

#: Bump when the certificate dictionary layout changes; part of the
#: hashed payload, so old pins can never match a new schema.
SCHEMA_VERSION = 1

#: The (code, p) pairs certified by ``repro certify --smoke`` and
#: pinned in :mod:`repro.static.pins`.  Two primes are enough to catch
#: layout regressions while keeping the CI gate instant.
SMOKE_PRIMES = (5, 7)


@dataclass(frozen=True)
class MDSReport:
    """The rank-oracle side of a certificate."""

    verdict: bool
    equations_independent: bool
    capacity_optimal: bool
    single_failures_ok: int
    single_failures_checked: int
    double_failures_ok: int
    double_failures_checked: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "equations_independent": self.equations_independent,
            "capacity_optimal": self.capacity_optimal,
            "single_failures_ok": self.single_failures_ok,
            "single_failures_checked": self.single_failures_checked,
            "double_failures_ok": self.double_failures_ok,
            "double_failures_checked": self.double_failures_checked,
        }


@dataclass(frozen=True)
class DoubleFailureProfile:
    """Structural peeling over every failed-disk pair."""

    fully_peelable: bool
    min_parallelism: int
    max_parallelism: int
    max_rounds: int
    mean_rounds: float
    max_stuck_cells: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "fully_peelable": self.fully_peelable,
            "min_parallelism": self.min_parallelism,
            "max_parallelism": self.max_parallelism,
            "max_rounds": self.max_rounds,
            "mean_rounds": round(self.mean_rounds, 9),
            "max_stuck_cells": self.max_stuck_cells,
        }


@dataclass(frozen=True)
class CodeCertificate:
    """Machine-readable static proof sheet for one ``(code, p)`` pair.

    All fields are derived from the chain structure; ``claims`` maps
    paper-claim identifiers to booleans (:meth:`failed_claims` lists
    the false ones).  :attr:`certificate_hash` is the SHA-256 of the canonical
    JSON serialization and acts as a layout fingerprint.
    """

    code: str
    p: int
    rows: int
    cols: int
    data_elements: int
    parity_elements: int
    storage_efficiency: float
    mds: MDSReport
    chain_count: int
    chain_lengths_by_kind: dict[str, tuple[int, ...]]
    uniform_chain_length: int | None
    parity_load: tuple[int, ...]
    parity_balanced: bool
    update_complexity_min: int
    update_complexity_mean: float
    update_complexity_max: int
    double_failure: DoubleFailureProfile
    claims: dict[str, bool] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "code": self.code,
            "p": self.p,
            "rows": self.rows,
            "cols": self.cols,
            "data_elements": self.data_elements,
            "parity_elements": self.parity_elements,
            "storage_efficiency": round(self.storage_efficiency, 9),
            "mds": self.mds.to_dict(),
            "chains": {
                "count": self.chain_count,
                "lengths_by_kind": {
                    kind: list(lengths)
                    for kind, lengths in sorted(self.chain_lengths_by_kind.items())
                },
                "uniform_length": self.uniform_chain_length,
            },
            "parity_load": {
                "per_disk": list(self.parity_load),
                "balanced": self.parity_balanced,
            },
            "update_complexity": {
                "min": self.update_complexity_min,
                "mean": round(self.update_complexity_mean, 9),
                "max": self.update_complexity_max,
            },
            "double_failure": self.double_failure.to_dict(),
            "claims": dict(sorted(self.claims.items())),
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def certificate_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def key(self) -> str:
        """The pin-table key, e.g. ``"HV@5"``."""
        return f"{self.code}@{self.p}"

    def failed_claims(self) -> list[str]:
        return [name for name, holds in sorted(self.claims.items()) if not holds]


def _mds_report(code: ArrayCode) -> MDSReport:
    """Exhaustive rank-oracle verdict over single and double erasures."""
    system = code.parity_check_system
    independent = system.rank() == len(code.chains)
    singles_checked = code.cols
    singles_ok = sum(
        1 for c in range(code.cols) if system.can_recover(code.disk_cells(c))
    )
    doubles = pairs(code.cols)
    doubles_ok = sum(
        1
        for a, b in doubles
        if system.can_recover(code.disk_cells(a) + code.disk_cells(b))
    )
    verdict = (
        independent
        and singles_ok == singles_checked
        and doubles_ok == len(doubles)
    )
    return MDSReport(
        verdict=verdict,
        equations_independent=independent,
        capacity_optimal=code.is_mds_capacity(),
        single_failures_ok=singles_ok,
        single_failures_checked=singles_checked,
        double_failures_ok=doubles_ok,
        double_failures_checked=len(doubles),
    )


def _double_failure_profile(code: ArrayCode) -> DoubleFailureProfile:
    """Peel every failed-disk pair symbolically (no buffers)."""
    widths: list[int] = []
    rounds: list[int] = []
    max_stuck = 0
    for a, b in pairs(code.cols):
        erased = set(code.disk_cells(a)) | set(code.disk_cells(b))
        schedule = peel_schedule(code.equations, erased)
        widths.append(schedule.parallelism)
        rounds.append(schedule.num_rounds)
        max_stuck = max(max_stuck, len(schedule.stuck))
    return DoubleFailureProfile(
        fully_peelable=max_stuck == 0,
        min_parallelism=min(widths),
        max_parallelism=max(widths),
        max_rounds=max(rounds),
        mean_rounds=sum(rounds) / len(rounds),
        max_stuck_cells=max_stuck,
    )


def _paper_claims(
    code: ArrayCode,
    mds: MDSReport,
    uniform_length: int | None,
    balanced: bool,
    update_mean: float,
    profile: DoubleFailureProfile,
) -> dict[str, bool]:
    """The claims this certificate asserts, keyed by identifier.

    ``mds`` is claimed for every registered code; the HV-specific rows
    of the paper's Table III and Algorithm 1 are claimed only for HV.
    """
    claims = {"mds": mds.verdict}
    if code.name == "HV":
        claims["chain_length_p_minus_2"] = uniform_length == code.p - 2
        claims["balanced_parity_load"] = balanced
        claims["four_parallel_recovery_chains"] = (
            profile.fully_peelable
            and profile.min_parallelism == 4
            and profile.max_parallelism == 4
        )
        claims["optimal_update_complexity"] = update_mean == 2.0
    return claims


def certify_code(code: ArrayCode) -> CodeCertificate:
    """Derive the full static certificate for an instantiated code.

    Raises :class:`CertificationError` when two independent derivations
    of the same quantity disagree (certifier self-check) — e.g. the
    chain-walk parity-load vector versus
    :func:`repro.metrics.balance.parity_distribution`, or the peeling
    parallelism and rounds versus :func:`repro.recovery.cost.repair_cost`.
    """
    mds = _mds_report(code)
    multiset = {
        kind.value: lengths
        for kind, lengths in code.chain_length_multiset().items()
    }
    all_lengths = {n for lengths in multiset.values() for n in lengths}
    uniform = all_lengths.pop() if len(all_lengths) == 1 else None

    load = code.parity_load()
    if list(load) != parity_distribution(code):
        raise CertificationError(
            f"{code.name}(p={code.p}): parity-load cross-check failed: "
            f"{list(load)} != {parity_distribution(code)}"
        )
    balanced = len(set(load)) == 1
    if balanced != is_parity_balanced(code):
        raise CertificationError(
            f"{code.name}(p={code.p}): balance cross-check failed"
        )

    complexities = [code.update_complexity(pos) for pos in code.data_positions]
    update_mean = sum(complexities) / len(complexities)

    profile = _double_failure_profile(code)
    if profile.fully_peelable:
        # Independent derivation of the same figures from the compiled
        # recovery plans the store runs (a peel for every code; the
        # oracle test holds HV's to Algorithm 1); disagreement means
        # the certifier or the compiler broke.
        costs = [repair_cost(code, pair) for pair in pairs(code.cols)]
        rounds = [cost.rounds for cost in costs]
        planned = (
            min(cost.parallelism for cost in costs),
            max(rounds),
            sum(rounds) / len(rounds),
        )
        peeled = (profile.min_parallelism, profile.max_rounds, profile.mean_rounds)
        if planned != peeled:
            raise CertificationError(
                f"{code.name}(p={code.p}): recovery-plan cross-check failed: "
                f"static (parallelism, max rounds, mean rounds) {peeled} "
                f"!= compiled {planned}"
            )

    claims = _paper_claims(code, mds, uniform, balanced, update_mean, profile)
    return CodeCertificate(
        code=code.name,
        p=code.p,
        rows=code.rows,
        cols=code.cols,
        data_elements=code.data_elements_per_stripe,
        parity_elements=len(code.parity_positions),
        storage_efficiency=code.storage_efficiency,
        mds=mds,
        chain_count=len(code.chains),
        chain_lengths_by_kind=multiset,
        uniform_chain_length=uniform,
        parity_load=load,
        parity_balanced=balanced,
        update_complexity_min=min(complexities),
        update_complexity_mean=update_mean,
        update_complexity_max=max(complexities),
        double_failure=profile,
        claims=claims,
    )


def certify(name: str, p: int) -> CodeCertificate:
    """Certify one registered code at one prime."""
    return certify_code(get_code(name, p))


def certify_registry(
    primes: tuple[int, ...] = EVALUATION_PRIMES,
    code_names: tuple[str, ...] | None = None,
) -> list[CodeCertificate]:
    """Certificates for every (code, prime) pair, in deterministic order."""
    names = code_names if code_names is not None else available_codes()
    return [certify(name, p) for p in primes for name in names]


def smoke_certificates() -> list[CodeCertificate]:
    """The pinned CI smoke set: every registered code at 5 and 7."""
    return certify_registry(primes=SMOKE_PRIMES)
