"""The fault injector: replay a :class:`FaultPlan` against a store.

The injector sits at the simulated disk/stripe boundary of a
:class:`~repro.array.filestore.FileStore`: the store pings
:meth:`FaultInjector.on_element_io` once per element access, the
injector advances its op counter, fires every event whose ``at_op`` has
arrived, and simulates transient-error windows with a bounded
retry/backoff loop.  Everything is deterministic: the same plan against
the same store and access sequence produces identical state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..exceptions import (
    InvalidParameterError,
    TransientIOError,
    UnrecoverableFailureError,
)
from .plan import FaultEvent, FaultKind, FaultPlan

if TYPE_CHECKING:
    from ..array.filestore import FileStore

Position = tuple[int, int]


class FaultInjector:
    """Arms a store with a fault plan and fires it during I/O.

    Parameters
    ----------
    plan:
        The schedule to replay.
    max_retries:
        Bounded retry budget per element I/O inside a transient window.
    backoff_base_ms:
        First retry backoff; doubles per attempt (exponential backoff).
        Accumulated into :attr:`backoff_seconds` for the time reports.
    """

    def __init__(
        self,
        plan: FaultPlan,
        max_retries: int = 3,
        backoff_base_ms: float = 1.0,
    ) -> None:
        if max_retries < 0:
            raise InvalidParameterError("max_retries must be >= 0")
        if backoff_base_ms < 0:
            raise InvalidParameterError("backoff_base_ms must be >= 0")
        self.plan = plan
        self.max_retries = max_retries
        self.backoff_base_ms = backoff_base_ms
        self.store: "FileStore" | None = None
        self.ops = 0
        self._pending: list[FaultEvent] = list(plan.events)
        self.fired: list[FaultEvent] = []
        self.skipped: list[FaultEvent] = []
        #: disk -> remaining transient failures in its open window.
        self.windows: dict[int, int] = {}
        self.retries = 0
        self.backoff_seconds = 0.0

    # -- wiring -----------------------------------------------------------------

    def attach(self, store: "FileStore") -> "FaultInjector":
        """Bind to a store; the store calls back on every element I/O."""
        store.injector = self
        self.store = store
        return self

    # -- the per-I/O hook ----------------------------------------------------------

    def on_element_io(self, stripe_idx: int, pos: Position, kind: str) -> None:
        """Advance time by one element I/O and inject what is due.

        Raises :class:`TransientIOError` when a transient window on the
        element's disk outlasts the retry budget; callers treat the
        element as lost for this operation and escalate.
        """
        self.ops += 1
        self.fire_due()
        self._ride_transient(pos[1])

    def fire_due(self) -> None:
        """Apply every pending event whose ``at_op`` has arrived."""
        while self._pending and self._pending[0].at_op <= self.ops:
            self._apply(self._pending.pop(0))

    def flush(self) -> None:
        """Fire all remaining events now (end-of-scenario determinism)."""
        while self._pending:
            self._apply(self._pending.pop(0))

    # -- event application ---------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        store = self.store
        if store is None:
            raise InvalidParameterError("injector not attached to a store")
        if event.kind is FaultKind.DISK_CRASH:
            if event.disk in store.failed_disks:
                self.skipped.append(event)
                return
            try:
                store.fail_disk(event.disk)
            except UnrecoverableFailureError:
                # A third crash would exceed RAID-6; the plan generator
                # avoids this, but a hand-written plan may not.
                self.skipped.append(event)
                return
        elif event.kind is FaultKind.TRANSIENT_IO:
            self.windows[event.disk] = (
                self.windows.get(event.disk, 0) + event.count
            )
        elif event.kind is FaultKind.LATENT_SECTOR:
            stripe = self._target_stripe(event)
            if stripe is None or not stripe.alive(event.position):
                self.skipped.append(event)
                return
            stripe.mark_latent(event.position)
        elif event.kind is FaultKind.BIT_FLIP:
            stripe = self._target_stripe(event)
            if stripe is None or not stripe.readable(event.position):
                self.skipped.append(event)
                return
            # Silent: the stripe buffer changes, the sidecar does not.
            stripe.flip_bits(event.position, event.byte_index, event.mask)
        self.fired.append(event)

    def _target_stripe(self, event: FaultEvent):
        store = self.store
        if store is None or event.stripe >= len(store.stripes):
            return None
        return store.stripes[event.stripe]

    # -- transient windows ---------------------------------------------------------

    def _ride_transient(self, disk: int) -> None:
        remaining = self.windows.get(disk, 0)
        if remaining <= 0:
            return
        for attempt in range(self.max_retries + 1):
            if remaining <= 0:
                break
            # This attempt fails; back off and retry.
            remaining -= 1
            self.retries += 1
            self.backoff_seconds += self.backoff_base_ms * (2**attempt) / 1000.0
        self.windows[disk] = remaining
        if remaining > 0:
            raise TransientIOError(
                f"disk {disk}: transient window outlasted "
                f"{self.max_retries} retries"
            )

    # -- reporting -----------------------------------------------------------------

    def summary(self) -> dict:
        """Deterministic injection summary for scenario reports."""
        return {
            "ops": self.ops,
            "fired": len(self.fired),
            "skipped": len(self.skipped),
            "pending": len(self._pending),
            "retries": self.retries,
            "backoff_seconds": round(self.backoff_seconds, 6),
        }
