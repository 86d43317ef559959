"""HV Code — the paper's contribution.

- :mod:`repro.core.hvcode` — layout and encoding (Eq. 1 / Eq. 2 of the
  paper), built on the shared parity-chain framework.
- :mod:`repro.core.recovery` — the paper's Algorithm 1: double-disk
  reconstruction along four parallel recovery chains.
- :mod:`repro.core.partial_write` — the partial-stripe-write analysis
  behind the paper's Section IV.5 claims (row sharing and the
  cross-row vertical-parity sharing).
"""

from .hvcode import HVCode
from .recovery import HVDoubleFailurePlan, plan_double_failure_recovery
from .partial_write import (
    PartialWriteAnalysis,
    analyze_partial_write,
    cross_row_sharing_rate,
)
from .ablation import GeneralizedHVCode

__all__ = [
    "HVCode",
    "HVDoubleFailurePlan",
    "plan_double_failure_recovery",
    "PartialWriteAnalysis",
    "analyze_partial_write",
    "cross_row_sharing_rate",
    "GeneralizedHVCode",
]
