"""Analysis extensions built on the reproduction.

- :mod:`repro.analysis.reliability` — a continuous-time Markov MTTDL
  model that turns the paper's recovery-speed results (Figs. 9a/9b)
  into the reliability statement motivating the whole line of work:
  faster rebuild means a smaller double-failure window.
"""

from .reliability import (
    MarkovChainModel,
    ReliabilityParameters,
    SectorErrorParameters,
    mttdl_for_code,
    mttdl_comparison,
    mttdl_with_sector_errors,
    raid6_mttdl_hours,
)

__all__ = [
    "MarkovChainModel",
    "ReliabilityParameters",
    "SectorErrorParameters",
    "mttdl_for_code",
    "mttdl_comparison",
    "mttdl_with_sector_errors",
    "raid6_mttdl_hours",
]
