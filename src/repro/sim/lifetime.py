"""Pluggable disk-lifetime distributions.

The Markov MTTDL model in :mod:`repro.analysis.reliability` is married
to the exponential distribution — that is what makes it a Markov
chain.  Real disks are not memoryless: populations show infant
mortality (decreasing hazard) early and wear-out (increasing hazard)
late, both classically modelled with a Weibull whose shape parameter
``k`` bends the hazard (``k < 1`` infant mortality, ``k = 1``
exponential, ``k > 1`` wear-out).  The fleet simulator accepts any
:class:`DiskLifetimeModel`, so the exponential case cross-validates
the closed form and the Weibull cases quantify what the closed form
misses.

All draws go through one :class:`numpy.random.Generator` owned by the
simulator, so a single seed reproduces the whole fleet's event stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidSimConfigError


class DiskLifetimeModel:
    """Interface: draw hours-to-failure for one fresh disk."""

    #: The model's name in :meth:`to_dict`.
    kind = "abstract"

    def draw(self, rng: np.random.Generator) -> float:
        """Hours until this (fresh) disk fails."""
        raise NotImplementedError

    @property
    def mean_hours(self) -> float:
        """Expected lifetime — the MTTF the Markov model would use."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ExponentialLifetime(DiskLifetimeModel):
    """Memoryless lifetimes — the Markov model's assumption."""

    mttf_hours: float = 1.0e6

    kind = "exponential"

    def __post_init__(self) -> None:
        if self.mttf_hours <= 0:
            raise InvalidSimConfigError("disk MTTF must be positive")

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mttf_hours))

    @property
    def mean_hours(self) -> float:
        return self.mttf_hours

    def to_dict(self) -> dict:
        return {"kind": self.kind, "mttf_hours": self.mttf_hours}


@dataclass(frozen=True)
class WeibullLifetime(DiskLifetimeModel):
    """Weibull lifetimes: ``shape < 1`` infant mortality, ``> 1`` wear-out.

    ``scale_hours`` is the characteristic life η (the 63.2 % failure
    point); the mean is ``η · Γ(1 + 1/k)``.
    """

    scale_hours: float = 1.0e6
    shape: float = 1.2

    kind = "weibull"

    def __post_init__(self) -> None:
        if self.scale_hours <= 0:
            raise InvalidSimConfigError("Weibull scale must be positive")
        if self.shape <= 0:
            raise InvalidSimConfigError("Weibull shape must be positive")

    def draw(self, rng: np.random.Generator) -> float:
        return float(self.scale_hours * rng.weibull(self.shape))

    @property
    def mean_hours(self) -> float:
        return self.scale_hours * math.gamma(1.0 + 1.0 / self.shape)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scale_hours": self.scale_hours,
            "shape": self.shape,
        }
