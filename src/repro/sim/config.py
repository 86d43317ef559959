"""Validated, serializable fleet-simulation parameters.

One :class:`SimConfig` pins down *everything* stochastic or
quantitative about a run: the code under test, fleet shape, horizon,
lifetime distribution, latent-error process, scrub cadence, spare
pool, repair-bandwidth budget, and the seed.  Two runs from equal
configs (``to_dict()`` equal) produce byte-identical reports — the
determinism contract the tests and the CI smoke hash rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.reliability import ReliabilityParameters
from ..array.latency import LatencyModel
from ..codes.registry import available_codes, get_code
from ..exceptions import InvalidSimConfigError
from .lifetime import DiskLifetimeModel, ExponentialLifetime

#: Default horizon: ten years of simulated operation.
TEN_YEARS_HOURS = 10 * 365 * 24.0


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one fleet simulation.

    Parameters
    ----------
    code_name, p:
        The array code under test (any :func:`repro.codes.registry`
        name) and its prime.
    fleet_size:
        Number of independent RAID-6 arrays simulated.
    horizon_hours:
        Simulated duration of the run.
    seed:
        Seed for the one :class:`numpy.random.Generator` driving every
        draw (lifetimes, latent-error arrivals).
    lifetime:
        Disk-lifetime distribution; exponential by default so the run
        is directly comparable to the Markov model.
    disk_capacity_elements, latency:
        Sizing of one disk and the per-request service time — together
        with the code's *measured* recovery I/O these set the rebuild
        durations (see :class:`~repro.sim.fleet.CodeRepairProfile`).
    latent_error_rate_per_hour:
        Poisson arrival rate of latent sector errors per *disk*.  A
        latent error on a survivor is absorbed while at most one disk
        is down (the RAID-6 one-disk-plus-one-sector design point) but
        fatal while two disks are down.
    scrub_interval_hours:
        Period of the per-array checksum scrub that clears outstanding
        latent errors (the fleet-scale counterpart of
        :func:`repro.faults.checksum.scrub_store`); ``None`` disables
        scrubbing.
    spares:
        Size of the fleet-wide hot-spare pool (``None`` = unlimited).
        A rebuild cannot start without a spare; consumed spares
        replenish ``spare_replenish_hours`` later.
    repair_streams:
        Fleet-wide repair-bandwidth budget: how many rebuilds can run
        at full speed concurrently.  With more active rebuilds than
        streams, every in-flight rebuild slows proportionally
        (processor sharing); ``None`` removes the constraint.
    """

    code_name: str = "HV"
    p: int = 7
    fleet_size: int = 100
    horizon_hours: float = TEN_YEARS_HOURS
    seed: int | None = 0
    lifetime: DiskLifetimeModel = field(default_factory=ExponentialLifetime)
    disk_capacity_elements: int = 300 * 1024 // 16
    latency: LatencyModel = field(default_factory=LatencyModel)
    latent_error_rate_per_hour: float = 0.0
    scrub_interval_hours: float | None = 7 * 24.0
    spares: int | None = None
    spare_replenish_hours: float = 24.0
    repair_streams: int | None = None

    def __post_init__(self) -> None:
        try:
            get_code(self.code_name, self.p)
        except Exception as exc:
            raise InvalidSimConfigError(
                f"cannot instantiate code {self.code_name!r} at p={self.p}: {exc}"
            ) from exc
        if self.code_name not in available_codes():
            # get_code normalizes aliases; pin the canonical spelling so
            # reports hash identically however the name was typed.
            object.__setattr__(
                self, "code_name", get_code(self.code_name, self.p).name
            )
        if self.fleet_size <= 0:
            raise InvalidSimConfigError("fleet_size must be positive")
        if self.horizon_hours <= 0:
            raise InvalidSimConfigError("horizon_hours must be positive")
        if not isinstance(self.lifetime, DiskLifetimeModel):
            raise InvalidSimConfigError(
                "lifetime must be a DiskLifetimeModel instance"
            )
        if self.disk_capacity_elements <= 0:
            raise InvalidSimConfigError("disk_capacity_elements must be positive")
        if self.latent_error_rate_per_hour < 0:
            raise InvalidSimConfigError("latent_error_rate_per_hour must be >= 0")
        if self.scrub_interval_hours is not None and self.scrub_interval_hours <= 0:
            raise InvalidSimConfigError(
                "scrub_interval_hours must be positive (or None to disable)"
            )
        if self.spares is not None and self.spares < 0:
            raise InvalidSimConfigError("spares must be >= 0 (or None for unlimited)")
        if self.spare_replenish_hours <= 0:
            raise InvalidSimConfigError("spare_replenish_hours must be positive")
        if self.repair_streams is not None and self.repair_streams <= 0:
            raise InvalidSimConfigError(
                "repair_streams must be positive (or None for unlimited)"
            )

    def make_code(self):
        """The :class:`~repro.codes.base.ArrayCode` under test."""
        return get_code(self.code_name, self.p)

    def reliability_parameters(self) -> ReliabilityParameters:
        """The matching Markov-model inputs (MTTF = the lifetime mean).

        This is the bridge the cross-validation walks: the closed-form
        prediction uses the *same* capacity, latency, and mean lifetime
        the simulator draws from.
        """
        return ReliabilityParameters(
            disk_mttf_hours=self.lifetime.mean_hours,
            disk_capacity_elements=self.disk_capacity_elements,
            latency=self.latency,
        )

    def to_dict(self) -> dict:
        """A JSON-friendly, canonically ordered rendering."""
        return {
            "code_name": self.code_name,
            "p": self.p,
            "fleet_size": self.fleet_size,
            "horizon_hours": self.horizon_hours,
            "seed": self.seed,
            "lifetime": self.lifetime.to_dict(),
            "disk_capacity_elements": self.disk_capacity_elements,
            "latency": {
                "seek_ms": self.latency.seek_ms,
                "bandwidth_mb_per_s": self.latency.bandwidth_mb_per_s,
                "element_size_mb": self.latency.element_size_mb,
            },
            "latent_error_rate_per_hour": self.latent_error_rate_per_hour,
            "scrub_interval_hours": self.scrub_interval_hours,
            "spares": self.spares,
            "spare_replenish_hours": self.spare_replenish_hours,
            "repair_streams": self.repair_streams,
        }
