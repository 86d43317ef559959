"""The ``engine=`` seam: one object per engine name.

Every site that takes an ``engine=`` hands the string to
:func:`resolve_backend`, the only code that reads it, and calls the
object it returns (the interface is :class:`~.base.KernelBackend`'s).
Kernel backends are *execution strategies only*: they consume the
same compiled, hash-pinned :class:`~repro.engine.plan.XorPlan` IR and
differ solely in how the kernels are issued.  The registry ships two:

``fused``
    The one numpy executor: the plan runs L2-block by L2-block over
    the whole region so steps reuse cache-resident data (:mod:`.fused`).
``native``
    A C inner loop compiled on first use via ``ctypes``; optional —
    :meth:`~.base.KernelBackend.available` is False without a host
    compiler (:mod:`.native`).

``"auto"`` resolves down the fallback ladder: ``native`` if available,
else ``fused``.  ``"python"`` resolves to the unregistered byte oracle,
which walks parity chains instead of running plans (:mod:`.oracle`).
"""

from __future__ import annotations

from ...exceptions import InvalidParameterError
from .base import KernelBackend, Target, charge_stats, split_targets
from .fused import FusedBackend
from .native import NativeBackend
from .oracle import PythonOracle

__all__ = [
    "KernelBackend",
    "Target",
    "FusedBackend",
    "NativeBackend",
    "ENGINE_CHOICES",
    "available_backends",
    "charge_stats",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "shutdown_backends",
    "split_targets",
]


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


register_backend(FusedBackend())
register_backend(NativeBackend())

#: Every value the ``engine=`` seam accepts.
ENGINE_CHOICES = ("python", "fused", "native", "auto")


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


_ORACLE = PythonOracle()


def resolve_backend(engine: str) -> KernelBackend:
    """Map an ``engine=`` string to the object that computes the bytes.

    ``"python"`` is the chain-walking oracle; ``"auto"`` walks the
    fallback ladder — ``native`` when the host can compile it, else
    ``fused``.  Asking for an unavailable backend by its explicit name
    is an error (the caller opted out of fallback), and so is a name
    outside :data:`ENGINE_CHOICES`.
    """
    if engine not in ENGINE_CHOICES:
        raise InvalidParameterError(
            f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
        )
    if engine == "python":
        return _ORACLE
    if engine == "auto":
        native = _REGISTRY["native"]
        return native if native.available() else _REGISTRY["fused"]
    backend = get_backend(engine)
    if not backend.available():
        raise InvalidParameterError(
            f"backend {engine!r} is unavailable on this host "
            f"({backend.unavailable_reason()}); "
            "use engine='auto' for graceful fallback"
        )
    return backend


def shutdown_backends() -> None:
    """The teardown hook: no backend holds pooled resources, so there
    is nothing to release."""
