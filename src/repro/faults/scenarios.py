"""Monte-Carlo fault scenarios: identical adversity for every code.

A *scenario* is: write a seeded payload, arm a seeded
:class:`FaultPlan`, stream reads while the faults fire, then walk the
full operational playbook — checksum scrub, degraded reads, and an
orchestrated hot-spare rebuild — and check the store still returns the
payload byte-for-byte.  Because both the payload and the plan derive
from one seed, every code in the registry faces the *same* fault
process, which makes survival rates and repair costs comparable — the
simulation-side companion of the Markov MTTDL model in
:mod:`repro.analysis.reliability`.

Scenarios that genuinely exceed RAID-6 (e.g. a second crash landing
while a stripe also carries a fresh URE) are recorded as casualties,
not crashes: ``survived=False`` with the phase that gave up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import InvalidParameterError, ReproError, UnrecoverableFaultError
from ..utils import mean, resolve_rng
from .injector import FaultInjector
from .plan import FaultPlan
from .rebuild_orchestrator import RebuildOrchestrator

#: Phases of a scenario, in the order they run.
PHASES = ("inject", "scrub", "degraded-read", "rebuild", "verify")


@dataclass
class ScenarioResult:
    """Deterministic record of one scenario run."""

    code_name: str
    seed: int
    survived: bool = True
    failed_phase: str | None = None
    failure: str | None = None
    degraded_read_ok: bool = False
    final_read_ok: bool = False
    parity_clean: bool = False
    plan: dict = field(default_factory=dict)
    injection: dict = field(default_factory=dict)
    scrub: dict = field(default_factory=dict)
    rebuilds: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "code": self.code_name,
            "seed": self.seed,
            "survived": self.survived,
            "failed_phase": self.failed_phase,
            "failure": self.failure,
            "degraded_read_ok": self.degraded_read_ok,
            "final_read_ok": self.final_read_ok,
            "parity_clean": self.parity_clean,
            "plan": self.plan,
            "injection": self.injection,
            "scrub": self.scrub,
            "rebuilds": self.rebuilds,
        }


def run_scenario(
    code,
    seed: int,
    *,
    stripes: int = 4,
    element_size: int = 32,
    crashes: int = 1,
    latent: int = 1,
    flips: int = 1,
    transients: int = 1,
) -> ScenarioResult:
    """One full adversity pass against one code instance.

    ``code`` is an :class:`~repro.codes.base.ArrayCode`.  The default
    fault mix is the paper's rebuild-window nightmare: one whole-disk
    crash plus one URE on a survivor, with a silent flip and a
    transient window riding along.
    """
    from ..array.filestore import FileStore  # local: avoids import cycle

    result = ScenarioResult(code_name=code.name, seed=seed)
    store = FileStore(code, element_size=element_size)
    payload_rng = resolve_rng(seed)
    payload = payload_rng.integers(
        0, 256, stripes * store.bytes_per_stripe, dtype="uint8"
    ).tobytes()
    store.write(0, payload)

    plan = FaultPlan.random(
        seed,
        rows=code.rows,
        cols=code.cols,
        stripes=stripes,
        element_size=element_size,
        crashes=crashes,
        latent=latent,
        flips=flips,
        transients=transients,
    )
    result.plan = plan.to_dict()
    injector = FaultInjector(plan).attach(store)

    phase = "inject"
    try:
        # Stream the payload back while the plan fires: this is where
        # transient windows, mid-read crashes, and self-healing element
        # reads are exercised.  Content is not checked yet — silent
        # flips are, by definition, silently served.
        for off in range(0, len(payload), store.bytes_per_stripe):
            store.read(off, min(store.bytes_per_stripe, len(payload) - off))
        injector.flush()
        result.injection = injector.summary()

        phase = "scrub"
        result.scrub = store.scrub_checksums(repair=True).to_dict()

        phase = "degraded-read"
        result.degraded_read_ok = store.read(0, len(payload)) == payload

        phase = "rebuild"
        orchestrator = RebuildOrchestrator(store)
        for disk in sorted(store.failed_disks):
            result.rebuilds.append(orchestrator.rebuild(disk).to_dict())

        phase = "verify"
        result.final_read_ok = store.read(0, len(payload)) == payload
        result.parity_clean = not store.failed_disks and store.scrub() == []
        result.survived = (
            result.degraded_read_ok and result.final_read_ok and result.parity_clean
        )
        if not result.survived:
            result.failed_phase = "verify"
            result.failure = "content or parity mismatch after recovery"
    except (UnrecoverableFaultError, ReproError) as exc:
        result.survived = False
        result.failed_phase = phase
        result.failure = f"{type(exc).__name__}: {exc}"
        result.injection = injector.summary()
    return result


def compare_codes(
    seeds,
    p: int = 7,
    code_names=None,
    **scenario_kwargs,
) -> dict[str, dict]:
    """Run identical seeded scenarios against several codes.

    Returns per-code aggregates: survival rate, mean rebuild seconds
    and repair reads over surviving scenarios, plus every individual
    :class:`ScenarioResult` as a dict.  An empty ``seeds`` is refused:
    a rate over no scenarios says nothing.
    """
    from ..codes.registry import EVALUATED_CODE_NAMES, get_code

    names = tuple(code_names) if code_names else EVALUATED_CODE_NAMES
    seeds = list(seeds)
    if not seeds:
        raise InvalidParameterError("fault scenarios need at least one seed")
    table: dict[str, dict] = {}
    for name in names:
        results = [
            run_scenario(get_code(name, p), seed, **scenario_kwargs)
            for seed in seeds
        ]
        survivors = [r for r in results if r.survived]
        rebuild_seconds = [
            rb["seconds"] for r in survivors for rb in r.rebuilds
        ]
        repair_reads = [
            r.scrub.get("repair_reads", 0)
            + sum(
                rb["chain_reads"] + rb["escalation_reads"] for rb in r.rebuilds
            )
            for r in survivors
        ]
        table[name] = {
            "scenarios": len(results),
            "survived": len(survivors),
            "survival_rate": len(survivors) / len(results),
            "mean_rebuild_seconds": mean(rebuild_seconds)
            if rebuild_seconds
            else 0.0,
            "mean_repair_reads": mean(repair_reads) if repair_reads else 0.0,
            "results": [r.to_dict() for r in results],
        }
    return table
