"""Many-client service traces: the serve-bench's input stream.

The paper's efficiency claims — balanced parity load, cheap partial
writes — are statements about *serving traffic*, and real traffic is
skewed: a few stripes are hot, most are cold.  This module generates
the seeded, many-client op stream the concurrent volume service
(:mod:`repro.service`) replays:

- stripe popularity follows a Zipf law (the same skew model the
  rotation ablation uses), so hot stripes hammer one shard while cold
  shards idle — exactly the contention pattern sharding must absorb;
- each op is tagged with a client id, so per-client streams can be
  reconstructed (future QoS work throttles per client);
- everything derives from one seed through
  :func:`repro.utils.resolve_rng`, so a trace is a pure function of
  its parameters and the serve-bench's op-mix hash is pinnable.

The trace is stored columnar (one numpy array per field) rather than
as a tuple of dataclasses: a million-op trace is a few tens of MB of
arrays instead of hundreds of MB of Python objects, and the digest is
a straight hash over the buffers.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..exceptions import WorkloadError
from ..utils import RandomState, resolve_rng


@dataclass(frozen=True)
class ClientOp:
    """One operation of a many-client service stream.

    ``offset``/``size`` are byte-addressed against the service volume
    and always fall within a single stripe, so the sharded pool can
    route the op to exactly one shard.
    """

    client: int
    kind: Literal["read", "write"]
    offset: int
    size: int


class ServiceTrace:
    """A columnar, seeded stream of :class:`ClientOp`.

    Iterating yields :class:`ClientOp` views; :attr:`trace_hash` is a
    SHA-256 over the parameters and the raw op arrays, so two traces
    with the same seed and parameters are verifiably identical.
    """

    def __init__(
        self,
        name: str,
        params: dict,
        clients: np.ndarray,
        writes: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        if not (len(clients) == len(writes) == len(offsets) == len(sizes)):
            raise WorkloadError("trace columns must have equal length")
        self.name = name
        self.params = dict(params)
        self.clients = clients
        self.writes = writes
        self.offsets = offsets
        self.sizes = sizes

    def __len__(self) -> int:
        return len(self.offsets)

    def op(self, i: int) -> ClientOp:
        return ClientOp(
            client=int(self.clients[i]),
            kind="write" if self.writes[i] else "read",
            offset=int(self.offsets[i]),
            size=int(self.sizes[i]),
        )

    def __iter__(self) -> Iterator[ClientOp]:
        for i in range(len(self)):
            yield self.op(i)

    @property
    def num_writes(self) -> int:
        return int(self.writes.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    @property
    def trace_hash(self) -> str:
        """SHA-256 over the parameters and the raw op columns."""
        h = hashlib.sha256()
        for key in sorted(self.params):
            h.update(f"{key}={self.params[key]};".encode())
        for column in (self.clients, self.writes, self.offsets, self.sizes):
            h.update(np.ascontiguousarray(column).tobytes())
        return h.hexdigest()

    def __repr__(self) -> str:
        return (
            f"ServiceTrace({self.name}, ops={len(self)}, "
            f"writes={self.num_writes}, bytes={self.total_bytes})"
        )


def service_trace(
    num_stripes: int,
    bytes_per_stripe: int,
    num_ops: int,
    *,
    num_clients: int = 64,
    write_fraction: float = 0.7,
    zipf_skew: float = 1.2,
    max_op_bytes: int | None = None,
    seed: RandomState = 0,
) -> ServiceTrace:
    """A seeded many-client trace with Zipf-skewed stripe popularity.

    Stripe ranks are weighted ``rank**-zipf_skew`` (normalized) and
    deterministically permuted so the hottest stripe is not always
    stripe 0; the offset within the chosen stripe is uniform and every
    op stays inside its stripe (``size`` is clamped to the stripe
    boundary), which is the addressing contract the sharded pool
    enforces.  ``write_fraction`` splits the stream into writes and
    reads; each op carries a uniform client id in ``[0, num_clients)``.
    """
    if num_stripes < 1:
        raise WorkloadError("service trace needs at least one stripe")
    if bytes_per_stripe < 1:
        raise WorkloadError("bytes_per_stripe must be positive")
    if num_ops < 1:
        raise WorkloadError("service trace needs at least one op")
    if num_clients < 1:
        raise WorkloadError("service trace needs at least one client")
    if not 0.0 <= write_fraction <= 1.0:
        raise WorkloadError("write_fraction must be in [0, 1]")
    if zipf_skew <= 1.0:
        raise WorkloadError("zipf skew must exceed 1.0")
    if max_op_bytes is None:
        max_op_bytes = min(4096, bytes_per_stripe)
    if not 1 <= max_op_bytes <= bytes_per_stripe:
        raise WorkloadError(
            f"max_op_bytes {max_op_bytes} must be in [1, {bytes_per_stripe}]"
        )
    rng = resolve_rng(seed)
    ranks = np.arange(1, num_stripes + 1, dtype=float)
    weights = ranks**-zipf_skew
    weights /= weights.sum()
    order = rng.permutation(num_stripes)
    stripes = order[rng.choice(num_stripes, size=num_ops, p=weights)]
    sizes = rng.integers(1, max_op_bytes + 1, size=num_ops, dtype=np.int64)
    within = rng.integers(
        0, bytes_per_stripe - sizes + 1, size=num_ops, dtype=np.int64
    )
    writes = rng.random(num_ops) < write_fraction
    clients = rng.integers(0, num_clients, size=num_ops, dtype=np.int64)
    params = dict(
        num_stripes=num_stripes,
        bytes_per_stripe=bytes_per_stripe,
        num_ops=num_ops,
        num_clients=num_clients,
        write_fraction=write_fraction,
        zipf_skew=zipf_skew,
        max_op_bytes=max_op_bytes,
    )
    return ServiceTrace(
        name=f"service_zipf_{zipf_skew:g}",
        params=params,
        clients=clients,
        writes=writes,
        offsets=stripes.astype(np.int64) * bytes_per_stripe + within,
        sizes=sizes,
    )
