"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package-level failures with a single except clause
while still distinguishing configuration mistakes from unrecoverable
data-loss conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidParameterError(ReproError, ValueError):
    """A constructor or function argument is out of its legal domain.

    Typical causes: a non-prime ``p``, a prime too small for a code's
    layout, an element index outside the stripe, or a trace parameter
    that does not describe a well-formed access pattern.
    """


class NotPrimeError(InvalidParameterError):
    """The modulus ``p`` supplied to an array code is not prime."""

    def __init__(self, p: int) -> None:
        super().__init__(f"array codes require a prime p, got p={p}")
        self.p = p


class LayoutError(ReproError):
    """A code layout is internally inconsistent.

    Raised when a parity-chain definition references a cell outside the
    stripe, when two parity elements collide on one cell, or when a
    chain's dependency graph contains a cycle (so no encode order
    exists).
    """


class DecodeError(ReproError):
    """Erasure decoding failed.

    Raised when the set of erased elements exceeds the code's
    correction capability, or when an iterative decoder cannot make
    progress on a pattern the code should tolerate (which indicates a
    construction bug — the exhaustive tests rely on this).
    """


class PlanError(DecodeError):
    """An XOR execution plan cannot be compiled for this request.

    Raised by :mod:`repro.engine` when an operation has no flat XOR
    schedule — e.g. an erasure pattern that chain peeling alone cannot
    reach (EVENODD's coupled adjuster under some double failures) and
    that therefore needs the Gaussian reference decoder.  Callers that
    pass a compiled engine (``"fused"``, ``"native"``, ``"auto"``) fall
    back to the pure-Python path when they catch this.
    """


class UnrecoverableFailureError(DecodeError):
    """More disks failed than the code tolerates (> 2 for RAID-6)."""


class UnrecoverableFaultError(DecodeError):
    """A fault scenario exhausted every recovery escalation.

    Raised by the self-healing layer (:mod:`repro.faults.healing`) when
    an element cannot be repaired through any parity chain *and* the
    full double-erasure decoder cannot absorb the combined erasure +
    latent-error pattern — the one-disk-plus-one-sector tolerance of
    RAID-6 has genuinely been exceeded.
    """


class FaultInjectionError(ReproError):
    """Base class for injected hardware faults.

    These errors model the *disk's* misbehavior, not a bug in the
    caller: a fault-aware layer is expected to catch them and escalate
    through retries, parity-chain repair, or full decoding.
    """


class TransientIOError(FaultInjectionError):
    """A retryable I/O error (cable hiccup, command timeout).

    The injector raises this when a transient fault window outlasts the
    caller's bounded retry budget; a later attempt may succeed.
    """


class LatentSectorError(FaultInjectionError):
    """An unrecoverable read error (URE) on one element.

    Models a latent sector error: the disk is up, but this element's
    media cannot be read until it is rewritten.  Carries the position so
    recovery planners can route around the poisoned cell.
    """

    def __init__(self, pos: tuple[int, int], message: str | None = None) -> None:
        super().__init__(message or f"latent sector error at element {pos}")
        self.pos = pos


class ChecksumMismatchError(FaultInjectionError):
    """An element's content no longer matches its CRC32 sidecar.

    Raised when silent corruption is *detected* but cannot be repaired
    in the current context (e.g. a rebuild decoded garbage because a
    surviving element was silently flipped).
    """


class CrashError(FaultInjectionError):
    """A simulated whole-machine crash (power loss) at an I/O boundary.

    Raised by the crash harness (:mod:`repro.faults.crash`) at a
    scheduled instruction boundary: everything volatile (the stripe
    cache, in-flight Python state) is lost, everything durable (stripe
    buffers, checksum sidecars, the parity intent journal) survives
    exactly as written so far.  Callers reopen the store with
    :meth:`repro.array.filestore.FileStore.reopen_from` and recover.
    """


class JournalError(ReproError):
    """The parity intent journal was misused or cannot serve a request.

    Raised by :mod:`repro.journal` for malformed append requests (an
    intent with no pieces, a payload exceeding its framed length) and
    for record applications outside their domain (redo of a non-intent
    record).  *Torn tails are not errors*: replay silently discards an
    incomplete or CRC-corrupt trailing record, which is exactly the
    crash semantics the journal exists to provide.
    """


class SimulationError(ReproError):
    """A simulator was driven into an illegal state.

    Raised by the disk-array simulator (issuing I/O to a failed disk
    without degraded mode, addressing past the end of the simulated
    volume, replaying a trace whose patterns exceed the volume size)
    and by the fleet simulator (:mod:`repro.sim`) when its event loop
    reaches an inconsistent state — popping an empty queue, completing
    a repair on a healthy array, scheduling an event in the past.
    """


class InvalidSimConfigError(SimulationError, ValueError):
    """A :class:`repro.sim.SimConfig` field is out of its legal domain.

    Typical causes: a non-positive fleet size or horizon, an unknown
    lifetime-model kind, a negative latent-error rate, or a scrub
    interval that is not positive.
    """


class WorkloadError(ReproError, ValueError):
    """A workload trace or access pattern is malformed."""


class ServiceError(ReproError):
    """Base class for failures of the concurrent volume service.

    Raised by :mod:`repro.service` when the sharded pool or the request
    scheduler is misconfigured or misused (an op addressing bytes that
    span two shards, a submit after close, an unknown op kind).
    """


class BackpressureError(ServiceError):
    """A non-blocking submit found the scheduler's queue saturated.

    The bounded admission queue is the service's backpressure signal:
    a blocking :meth:`~repro.service.RequestScheduler.submit` waits (and
    counts the wait), a non-blocking one raises this error so callers
    can shed load instead of queueing unboundedly.
    """


class ConcurrentMutationError(ServiceError):
    """Two threads interleaved structural operations on one store.

    :class:`~repro.array.filestore.FileStore` is a single-writer
    object: ``flush()``, ``recover()``, ``fail_disk()`` and
    ``rebuild()`` mutate stripe buffers, the cache, and the journal
    with no internal synchronization.  The store detects a thread
    entering one of these sections while another holds the store's
    ``lock`` and fails loudly instead of corrupting parity — serialize
    through that lock, which is also the shard's (see
    ``docs/SERVICE.md`` for the locking discipline).
    """


class GFDomainError(ReproError, ZeroDivisionError):
    """A Galois-field operation was applied outside its domain.

    Raised for division by zero, the inverse of zero, a negative power
    of zero, or the logarithm of zero in GF(2^w).  Subclasses
    :class:`ZeroDivisionError` so callers treating field division like
    ordinary division keep working.
    """


class StaticAnalysisError(ReproError):
    """Base class for failures of the static-verification subsystem.

    Raised by :mod:`repro.static` when a source tree cannot be linted
    (unparseable file, unknown rule id) or a code layout cannot be
    certified.
    """


class CertificationError(StaticAnalysisError):
    """A code's static certificate contradicts a paper claim or a pin.

    Raised when :func:`repro.static.certify_code` produces a
    :class:`~repro.static.CodeCertificate` whose claims fail (a layout
    regression broke MDS-ness, chain lengths, or parity balance) or
    whose canonical hash no longer matches the pinned value recorded in
    :mod:`repro.static.pins`.
    """


