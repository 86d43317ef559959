"""Disk-array simulator.

This subpackage substitutes for the paper's physical testbed (16 SAS
disks behind an 800 MB/s fiber link).  It provides:

- :mod:`repro.array.stripe` — the in-memory stripe of element buffers.
- :mod:`repro.array.latency` — the seek+transfer latency model.
- :mod:`repro.array.iostats` — the per-disk I/O ledger shared by the
  volume, the stores and the experiments.
- :mod:`repro.array.addressing` — logical data addresses over a
  multi-stripe volume.
- :mod:`repro.array.raid` — :class:`RAID6Volume`, which prices write
  patterns, reads, and degraded reads by the compiled ``update`` and
  ``read`` plans the store runs, over the addressing, a set of failed
  disks, and the latency model.
"""

from .latency import LatencyModel
from .iostats import IOStats
from .stripe import Stripe, StripeBatch
from .addressing import VolumeAddressing
from .raid import RAID6Volume, PatternResult
from .filestore import FileStore
from .stripe_cache import StripeCache

__all__ = [
    "LatencyModel",
    "IOStats",
    "Stripe",
    "StripeBatch",
    "VolumeAddressing",
    "RAID6Volume",
    "PatternResult",
    "FileStore",
    "StripeCache",
]
