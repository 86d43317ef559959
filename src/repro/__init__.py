"""Reproduction of HV Code (DSN 2014): an all-around MDS RAID-6 code.

The package is organized as:

- :mod:`repro.core` — HV Code itself (the paper's contribution).
- :mod:`repro.codes` — the baseline array codes the paper compares
  against (RDP, HDP, X-Code, H-Code) plus extensions (EVENODD, P-Code,
  Liberation, Cauchy-RS), all built on a shared parity-chain framework.
- :mod:`repro.gf` / :mod:`repro.xor` — arithmetic substrates.
- :mod:`repro.array` — a discrete disk-array simulator (the paper's
  physical testbed, substituted per DESIGN.md).
- :mod:`repro.workloads` — the paper's write/read trace generators.
- :mod:`repro.recovery` — generic erasure decoding and the minimal-I/O
  recovery planners.
- :mod:`repro.journal` — the CRC-framed parity intent log that makes
  the write-back cache crash-consistent (torn-write recovery).
- :mod:`repro.faults` — seeded fault injection, checksum scrubbing,
  self-healing recovery, orchestrated hot-spare rebuilds, and the
  kill-anywhere crash harness.
- :mod:`repro.sim` — a discrete-event fleet-scale reliability and
  rebuild simulator (imported on demand; not pulled in by
  ``import repro``).
- :mod:`repro.service` — the sharded concurrent volume service: a
  `VolumePool` of per-shard stores, each behind its own lock, a
  bounded-queue request scheduler, and the oracle-checked serve-bench
  (imported on demand; not pulled in by ``import repro``).
- :mod:`repro.experiments` — one module per paper figure/table.

Quickstart::

    from repro import HVCode
    code = HVCode(p=7)
    stripe = code.random_stripe(element_size=64, seed=1)
    code.encode(stripe)
    stripe.erase_disks([0, 2])
    code.decode(stripe, failed_disks=[0, 2])
"""

from .version import __version__, PAPER
from .exceptions import (
    ReproError,
    InvalidParameterError,
    NotPrimeError,
    LayoutError,
    DecodeError,
    PlanError,
    UnrecoverableFailureError,
    UnrecoverableFaultError,
    SimulationError,
    InvalidSimConfigError,
    WorkloadError,
    ServiceError,
    BackpressureError,
    ConcurrentMutationError,
    FaultInjectionError,
    TransientIOError,
    LatentSectorError,
    ChecksumMismatchError,
    CrashError,
    JournalError,
    GFDomainError,
    StaticAnalysisError,
    CertificationError,
)
from .codes.base import ArrayCode, ElementKind, ParityChain, Position
from .codes.registry import available_codes, get_code, evaluated_codes
from .core.hvcode import HVCode
from .codes.rdp import RDPCode
from .codes.evenodd import EvenOddCode
from .codes.xcode import XCode
from .codes.hdp import HDPCode
from .codes.hcode import HCode
from .codes.pcode import PCode
from .codes.liberation import LiberationCode
from .codes.cauchy import CauchyRSCode

__all__ = [
    "__version__",
    "PAPER",
    "ReproError",
    "InvalidParameterError",
    "NotPrimeError",
    "LayoutError",
    "DecodeError",
    "PlanError",
    "UnrecoverableFailureError",
    "UnrecoverableFaultError",
    "SimulationError",
    "InvalidSimConfigError",
    "WorkloadError",
    "ServiceError",
    "BackpressureError",
    "ConcurrentMutationError",
    "FaultInjectionError",
    "TransientIOError",
    "LatentSectorError",
    "ChecksumMismatchError",
    "CrashError",
    "JournalError",
    "GFDomainError",
    "StaticAnalysisError",
    "CertificationError",
    "ArrayCode",
    "ElementKind",
    "ParityChain",
    "Position",
    "available_codes",
    "evaluated_codes",
    "get_code",
    "HVCode",
    "RDPCode",
    "EvenOddCode",
    "XCode",
    "HDPCode",
    "HCode",
    "PCode",
    "LiberationCode",
    "CauchyRSCode",
]
