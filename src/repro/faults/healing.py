"""The self-healing escalation ladder shared by every recovery path.

RAID-6's practical tolerance is *one disk plus one sector*: with a
whole column erased, a latent sector error (URE) on a surviving disk
must still be survivable, because that is precisely what dominates
rebuild-window data loss.  This module implements the ladder:

1. **direct read** — the element is readable, return it;
2. **parity chain** — pick any chain through the element whose other
   members are readable; if a chain is poisoned by another fault, try
   the element's *other* chain (every cell of every code here sits on
   at least one chain, data cells on two or more);
3. **full decode** — treat every erased *and* latent cell as an
   erasure and decode a copy of the stripe with :meth:`ArrayCode.decode`;
4. **give up** — raise :class:`UnrecoverableFaultError`; the pattern
   genuinely exceeds the code.

Steps are cheap-first: a chain repair reads ``chain length - 1``
elements, a full decode reads the whole surviving stripe.

A :class:`~repro.array.filestore.FileStore` climbs no ladder: one
compiled ``read`` plan per stripe loss pattern repairs what rungs 2
and 3 would, the compiler solving by elimination where peeling stalls,
and a pattern it rejects is rung 4.  Its rebuilds and the checksum
scrub (a flipped cell marked latent) restore cells through one
routine, :meth:`~repro.array.filestore.FileStore._rebuild_stripe`.
This module's ladder is the reference those plans are tested against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import UnrecoverableFailureError, UnrecoverableFaultError

if TYPE_CHECKING:
    from ..array.stripe import Stripe
    from ..codes.base import ArrayCode

Position = tuple[int, int]


class HealingStats:
    """Counters one healing call chain (or one store) accumulates.

    - ``chain_repairs``: lost or latent elements recomputed through
      parity chains — by rung 2, and each cell a ``FileStore`` read,
      degraded write, rebuild or scrub computes with a compiled plan;
    - ``escalations``: rung-3 full decodes (a ``FileStore`` runs
      none, so its count stays 0);
    - ``reads``: element reads charged here rather than to a store's
      :class:`~repro.array.iostats.IOStats` — rungs 1-3, and the
      cells a ``FileStore`` rebuild or scrub plan reads (degraded reads
      and writes charge their plans' reads to ``IOStats``).
    """

    def __init__(self) -> None:
        self.chain_repairs = 0
        self.escalations = 0
        self.reads = 0

    def merge(self, other: "HealingStats") -> None:
        self.chain_repairs += other.chain_repairs
        self.escalations += other.escalations
        self.reads += other.reads


def _chains_through(code: "ArrayCode", pos: Position):
    chains = list(code.chains_through[pos])
    if pos in code.chain_at:
        chains.append(code.chain_at[pos])
    return chains


def recover_element(
    code: "ArrayCode",
    stripe: "Stripe",
    pos: Position,
    stats: HealingStats | None = None,
    *,
    engine: str = "python",
) -> np.ndarray:
    """Return the logical content of ``pos``, healing as needed.

    Does not mutate the stripe — a caller that wants the repair
    persisted writes the returned buffer back itself.
    ``engine`` selects how a rung-3 full decode executes.
    """
    stats = stats if stats is not None else HealingStats()
    if stripe.readable(pos):
        stats.reads += 1
        return stripe.get(pos).copy()
    # Rung 2: any chain whose other members are all readable.
    for chain in _chains_through(code, pos):
        others = [c for c in chain.equation_cells if c != pos]
        if all(stripe.readable(c) for c in others):
            stats.reads += len(others)
            stats.chain_repairs += 1
            return stripe.xor_of(others)
    # Rung 3: full decode with every latent cell treated as erased.
    restored = decode_resilient(code, stripe, stats, engine=engine)
    return restored.get(pos).copy()


def decode_resilient(
    code: "ArrayCode",
    stripe: "Stripe",
    stats: HealingStats | None = None,
    *,
    engine: str = "python",
) -> "Stripe":
    """A fully-decoded copy of a stripe with erasures *and* UREs.

    Latent cells are demoted to erasures (their buffers cannot be
    trusted to be fetchable), then :meth:`ArrayCode.decode` runs on the
    given ``engine``: the compiled plan for the pattern where one
    exists, the rank oracle and the peeling + Gaussian decoder where
    not.  Raises :class:`UnrecoverableFaultError` when the combined
    pattern exceeds the code.
    """
    stats = stats if stats is not None else HealingStats()
    work = stripe.copy()
    for pos in work.latent_positions():
        work.erase(pos)
    lost = int(np.count_nonzero(work.state))
    if not lost:
        return work
    try:
        code.decode(work, engine=engine)
    except UnrecoverableFailureError as exc:
        raise UnrecoverableFaultError(str(exc)) from exc
    stats.escalations += 1
    stats.reads += code.rows * code.cols - lost
    return work
