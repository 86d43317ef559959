"""Pluggable kernel backends behind the ``engine=`` seam.

Every site that accepted ``engine="python" | "vector"`` now accepts any
registered backend name, plus ``"auto"``.  Backends are *execution
strategies only*: they consume the same compiled, hash-pinned
:class:`~repro.engine.plan.XorPlan` IR and differ solely in how the
kernels are issued.  The registry ships three:

``vector``
    The classic per-step executor (:func:`repro.engine.executor.execute_plan`)
    — one numpy kernel per XOR source, ``groups`` thread fan-out.
``fused``
    Tiled whole-region execution; the plan runs L2-block by L2-block so
    steps reuse cache-resident data (:mod:`.fused`).
``native``
    A C inner loop compiled on first use via ``ctypes``; optional —
    :meth:`~.base.KernelBackend.available` is False without a host
    compiler (:mod:`.native`).

``"auto"`` resolves down the fallback ladder: ``native`` if available,
else ``fused``.  ``"python"`` remains the scalar/reference path and is
handled by the callers themselves (codes, stores), not by a backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...exceptions import InvalidParameterError
from .. import executor as _executor
from .base import KernelBackend, Target, charge_stats, split_targets
from .fused import FusedBackend
from .native import NativeBackend

if TYPE_CHECKING:
    from ...array.iostats import IOStats
    from ..plan import XorPlan

__all__ = [
    "KernelBackend",
    "Target",
    "VectorBackend",
    "FusedBackend",
    "NativeBackend",
    "ENGINE_CHOICES",
    "available_backends",
    "charge_stats",
    "get_backend",
    "register_backend",
    "require_engine",
    "resolve_backend",
    "shutdown_backends",
    "split_targets",
]


class VectorBackend(KernelBackend):
    """The classic per-step executor, wrapped as a backend."""

    name = "vector"

    def execute(
        self,
        plan: "XorPlan",
        target: Target,
        *,
        stats: "IOStats | None" = None,
        workers: int | None = None,
    ) -> None:
        _executor.execute_plan(plan, target, stats=stats, workers=workers)


#: The backend registry, keyed by the ``engine=`` string.
_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add (or replace) a backend under its :attr:`~KernelBackend.name`."""
    if not backend.name or backend.name in ("python", "auto", "abstract"):
        raise InvalidParameterError(
            f"cannot register a backend named {backend.name!r}"
        )
    _REGISTRY[backend.name] = backend
    return backend


register_backend(VectorBackend())
register_backend(FusedBackend())
register_backend(NativeBackend())

#: Every value the ``engine=`` seam accepts.  ``python`` is the scalar
#: reference path (no backend object); the rest resolve here.
ENGINE_CHOICES = ("python", "vector", "fused", "native", "auto")


def available_backends() -> tuple[str, ...]:
    """Names of registered backends that can run on this host."""
    return tuple(
        name for name, b in _REGISTRY.items() if b.available()
    )


def get_backend(name: str) -> KernelBackend:
    """The registered backend named ``name`` (no auto-resolution)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def resolve_backend(engine: str) -> KernelBackend:
    """Map an ``engine=`` string to the backend that will execute.

    ``"auto"`` walks the fallback ladder — ``native`` when the host can
    compile it, else ``fused``.  Asking for an unavailable backend by
    its explicit name is an error (the caller opted out of fallback).
    """
    if engine == "auto":
        native = _REGISTRY["native"]
        return native if native.available() else _REGISTRY["fused"]
    backend = get_backend(engine)
    if not backend.available():
        raise InvalidParameterError(
            f"backend {engine!r} is unavailable on this host; "
            "use engine='auto' for graceful fallback"
        )
    return backend


def require_engine(engine: str) -> str:
    """Validate an ``engine=`` value, returning it unchanged.

    The single choke point for the seam: codes, stores, recovery plans
    and the service pool all validate here so the error message (and
    the set of accepted names) cannot drift between layers.
    """
    if engine not in ENGINE_CHOICES:
        raise InvalidParameterError(
            f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
        )
    return engine


def shutdown_backends() -> None:
    """Release pooled resources (the ``workers=`` executor threads)."""
    _executor.shutdown_executor_pool()
