"""MTTDL analysis: what the recovery results mean for reliability.

The paper's introduction argues that efficient recovery matters
because slow rebuilds widen the window in which a second (and fatal
third) failure can strike.  This module closes that loop with the
standard continuous-time Markov model for an N-disk RAID-6 group:

    state 0 (healthy) --N·λ-->  state 1 (1 failed)
    state 1 --(N-1)·λ-->        state 2 (2 failed)
    state 2 --(N-2)·λ-->        data loss (absorbing)
    state 1 --μ1--> state 0     (single-disk rebuild)
    state 2 --μ2--> state 1     (double-disk rebuild)

MTTDL is the expected absorption time from state 0, obtained exactly
from the generator matrix (no λ ≪ μ approximation).  The repair rates
come from the code's repair price, read off its compiled recovery plans
(:func:`repro.recovery.cost.repair_cost`):

- the single-disk rebuild moves ``reads_per_lost_element`` (Fig. 9(a))
  elements per lost element; surviving disks stream those reads in
  parallel, so rebuild time scales with
  ``R · C / (N - 1)`` element-read times for a disk of ``C`` elements;
- the double-disk rebuild is gated by the recovery-chain depth
  (Fig. 9(b)), so its time scales the single-disk figure by the
  measured round count relative to the array's own single-pass depth.

Absolute hours depend on the parameter choices; the *ratios* across
codes are what the model is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..array.latency import LatencyModel
from ..exceptions import InvalidParameterError
from ..recovery.cost import expected_double_rounds, expected_recovery_reads_per_element

if TYPE_CHECKING:
    from ..codes.base import ArrayCode


@dataclass(frozen=True)
class ReliabilityParameters:
    """Inputs of the MTTDL model.

    ``disk_mttf_hours`` is the per-disk mean time to failure (the
    classic datasheet million hours is the default);
    ``disk_capacity_elements`` the number of elements a disk holds
    (300 GB of 16 MB elements for the paper's Savvio drives); the
    latency model prices one element read.
    """

    disk_mttf_hours: float = 1.0e6
    disk_capacity_elements: int = 300 * 1024 // 16
    latency: LatencyModel = LatencyModel()

    def __post_init__(self) -> None:
        if self.disk_mttf_hours <= 0:
            raise InvalidParameterError("disk MTTF must be positive")
        if self.disk_capacity_elements <= 0:
            raise InvalidParameterError("disk capacity must be positive")

    @property
    def failure_rate_per_hour(self) -> float:
        return 1.0 / self.disk_mttf_hours


class MarkovChainModel:
    """Expected absorption time of a transient CTMC, solved exactly."""

    def __init__(self, generator: np.ndarray) -> None:
        q = np.asarray(generator, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise InvalidParameterError("generator must be square")
        self.generator = q

    def expected_absorption_times(self) -> np.ndarray:
        """``t = -Q^{-1} 1``: expected time to absorption per state."""
        n = self.generator.shape[0]
        try:
            return np.linalg.solve(self.generator, -np.ones(n))
        except np.linalg.LinAlgError as exc:
            raise InvalidParameterError(
                "generator is singular — is an absorbing state reachable?"
            ) from exc


def raid6_mttdl_hours(
    num_disks: int,
    failure_rate: float,
    repair_rate_single: float,
    repair_rate_double: float,
) -> float:
    """MTTDL of an N-disk RAID-6 group with the given rates."""
    if num_disks < 3:
        raise InvalidParameterError("RAID-6 reliability needs >= 3 disks")
    n, lam = num_disks, failure_rate
    mu1, mu2 = repair_rate_single, repair_rate_double
    # Transient states 0, 1, 2; absorption = data loss.
    generator = np.array(
        [
            [-n * lam, n * lam, 0.0],
            [mu1, -(mu1 + (n - 1) * lam), (n - 1) * lam],
            [0.0, mu2, -(mu2 + (n - 2) * lam)],
        ]
    )
    return float(MarkovChainModel(generator).expected_absorption_times()[0])


def rebuild_hours(
    code: "ArrayCode",
    params: ReliabilityParameters,
    reads_per_lost_element: float,
    double_rounds: float,
) -> tuple[float, float]:
    """Single- and double-disk rebuild hours from the code's repair price.

    The single rebuild streams ``reads_per_lost_element`` (Fig. 9(a))
    reads per lost element from the surviving disks in parallel.  The
    double rebuild is Fig. 9(b)'s model: gated by the longest recovery
    chain, so relative to a fully parallel repair of one disk (depth =
    rows) the expected depth ``double_rounds`` inflates the time, on
    twice the data volume.
    """
    total_reads = reads_per_lost_element * params.disk_capacity_elements
    per_surviving_disk = total_reads / (code.cols - 1)
    single = per_surviving_disk * params.latency.request_seconds / 3600.0
    depth_penalty = double_rounds / code.rows
    return single, 2.0 * single * max(depth_penalty, 1.0)


def _measured_rebuild(
    code: "ArrayCode", params: ReliabilityParameters
) -> tuple[float, float, float]:
    """Greedy reads per lost element, then both rebuild durations."""
    reads = expected_recovery_reads_per_element(code, "greedy")
    single, double = rebuild_hours(code, params, reads, expected_double_rounds(code))
    return reads, single, double


def mttdl_for_code(
    code: "ArrayCode", params: ReliabilityParameters | None = None
) -> dict[str, float]:
    """MTTDL and its ingredients for one code instance."""
    params = params or ReliabilityParameters()
    _, single_hours, double_hours = _measured_rebuild(code, params)
    mttdl = raid6_mttdl_hours(
        code.cols,
        params.failure_rate_per_hour,
        1.0 / single_hours,
        1.0 / double_hours,
    )
    return {
        "disks": float(code.cols),
        "single_rebuild_hours": single_hours,
        "double_rebuild_hours": double_hours,
        "mttdl_hours": mttdl,
    }


def mttdl_comparison(
    codes: list["ArrayCode"], params: ReliabilityParameters | None = None
) -> dict[str, dict[str, float]]:
    """MTTDL table across codes (the reliability ablation's engine)."""
    params = params or ReliabilityParameters()
    return {code.name: mttdl_for_code(code, params) for code in codes}


# -- latent-sector-error extension ---------------------------------------------
#
# The Markov model above assumes rebuilds always succeed.  Real RAID-6
# reliability is dominated by unrecoverable read errors (UREs) struck
# *during* a rebuild: with one disk down a URE on a survivor is still
# tolerable (the second parity absorbs it — the one-disk-plus-one-
# sector design point the fault-injection scenarios exercise), but with
# two disks down a URE is fatal.  The extension below folds that into
# the chain: the double-rebuild transition splits into a successful
# repair (rate mu2 * (1 - p_ure)) and a loss (rate mu2 * p_ure).


@dataclass(frozen=True)
class SectorErrorParameters:
    """Latent-sector-error model inputs.

    ``bits_per_element`` prices one element read against the
    ``unrecoverable_bit_error_rate`` (datasheet UREs are quoted per
    bits read; 1e-15 is a typical nearline figure).  The probability
    that a rebuild reading ``n`` elements hits at least one URE is
    ``1 - (1 - ber)^(n * bits_per_element)``.
    """

    unrecoverable_bit_error_rate: float = 1.0e-15
    bits_per_element: float = 16 * 1024 * 1024 * 8  # the paper's 16 MB

    def __post_init__(self) -> None:
        if not 0.0 <= self.unrecoverable_bit_error_rate < 1.0:
            raise InvalidParameterError("bit error rate must be in [0, 1)")
        if self.bits_per_element <= 0:
            raise InvalidParameterError("bits_per_element must be positive")

    def ure_probability(self, elements_read: float) -> float:
        """P(at least one URE over ``elements_read`` element reads)."""
        if elements_read < 0:
            raise InvalidParameterError("elements_read must be >= 0")
        bits = elements_read * self.bits_per_element
        return -float(np.expm1(bits * np.log1p(-self.unrecoverable_bit_error_rate)))


def raid6_mttdl_hours_with_sector_errors(
    num_disks: int,
    failure_rate: float,
    repair_rate_single: float,
    repair_rate_double: float,
    p_ure_double: float,
) -> float:
    """MTTDL with URE-poisoned double rebuilds.

    ``p_ure_double`` is the probability that the two-disk rebuild hits
    an unrecoverable sector; that fraction of rebuild completions is a
    data-loss absorption instead of a repair.
    """
    if num_disks < 3:
        raise InvalidParameterError("RAID-6 reliability needs >= 3 disks")
    if not 0.0 <= p_ure_double <= 1.0:
        raise InvalidParameterError("p_ure_double must be in [0, 1]")
    n, lam = num_disks, failure_rate
    mu1, mu2 = repair_rate_single, repair_rate_double
    mu2_ok = mu2 * (1.0 - p_ure_double)
    mu2_loss = mu2 * p_ure_double
    generator = np.array(
        [
            [-n * lam, n * lam, 0.0],
            [mu1, -(mu1 + (n - 1) * lam), (n - 1) * lam],
            [0.0, mu2_ok, -(mu2_ok + mu2_loss + (n - 2) * lam)],
        ]
    )
    return float(MarkovChainModel(generator).expected_absorption_times()[0])


def mttdl_with_sector_errors(
    code: "ArrayCode",
    params: ReliabilityParameters | None = None,
    sector: SectorErrorParameters | None = None,
    measured_double_failure_fraction: float | None = None,
) -> dict[str, float]:
    """The MTTDL ingredients with the latent-sector-error extension.

    ``measured_double_failure_fraction`` substitutes a simulation-backed
    estimate of the fatal-URE probability — e.g. the fraction of
    double-adversity scenarios from
    :func:`repro.faults.scenarios.compare_codes` that did not survive —
    for the analytic datasheet figure.
    """
    params = params or ReliabilityParameters()
    sector = sector or SectorErrorParameters()
    reads, single_hours, double_hours = _measured_rebuild(code, params)
    # The double rebuild reads roughly twice the single-rebuild volume.
    double_read_elements = 2.0 * reads * params.disk_capacity_elements
    p_ure = (
        measured_double_failure_fraction
        if measured_double_failure_fraction is not None
        else sector.ure_probability(double_read_elements)
    )
    mttdl = raid6_mttdl_hours_with_sector_errors(
        code.cols,
        params.failure_rate_per_hour,
        1.0 / single_hours,
        1.0 / double_hours,
        p_ure,
    )
    baseline = raid6_mttdl_hours(
        code.cols,
        params.failure_rate_per_hour,
        1.0 / single_hours,
        1.0 / double_hours,
    )
    return {
        "disks": float(code.cols),
        "single_rebuild_hours": single_hours,
        "double_rebuild_hours": double_hours,
        "p_ure_double_rebuild": p_ure,
        "mttdl_hours": mttdl,
        "mttdl_hours_no_sector_errors": baseline,
        "mttdl_penalty": baseline / mttdl if mttdl > 0 else float("inf"),
    }
