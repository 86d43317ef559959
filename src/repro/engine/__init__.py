"""repro.engine — plan compiler and XOR plan executor.

The engine turns a code's parity equations into a flat, topologically
ordered XOR schedule (:class:`XorPlan`) once, caches it, and then runs
that schedule over ``uint64``-viewed stripe buffers through a kernel
backend: tiled numpy kernels (``fused``) or a compiled C loop
(``native``).  The pure-Python decoders in
:mod:`repro.codes` remain the reference oracle; every plan is checked
byte-identical against them in the differential tests.

Typical use::

    from repro.engine import compile_plan, execute_plan

    plan = compile_plan(code, "recover-double", (0, 2))
    execute_plan(plan, stripe)                  # one stripe, fused
    execute_plan(plan, batch, backend="auto")   # a StripeBatch, native if built

Higher layers normally never touch this module directly — they pass
an engine name (``python``, ``fused``, ``native``, ``auto``) as
``engine=`` to :meth:`ArrayCode.encode/decode`, :class:`FileStore` or
:class:`VolumePool`, and :func:`resolve_backend` turns it into the
object that computes the bytes: a kernel backend, or the ``python``
chain-walking oracle.  Algorithm 1's independent recovery chains are plan structure
derived from the peeled steps (:attr:`XorPlan.groups`, the steps'
dependency components, and :attr:`XorPlan.rounds`, their depth) that
:mod:`repro.static.planverify` proves independent (rule P003); no
executor runs them on threads.
"""

from .backends import (
    ENGINE_CHOICES,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    shutdown_backends,
)
from .compile import (
    MAX_CSE_TEMPS,
    PLAN_CACHE,
    UPDATE_STRATEGIES,
    PlanCache,
    choose_update_strategy,
    compile_plan,
    eliminate_common_pairs,
)
from .executor import apply_update, execute_plan, execute_plan_scalar
from .plan import PLAN_OPS, XorPlan, XorStep

__all__ = [
    "ENGINE_CHOICES",
    "MAX_CSE_TEMPS",
    "PLAN_CACHE",
    "PLAN_OPS",
    "UPDATE_STRATEGIES",
    "KernelBackend",
    "PlanCache",
    "XorPlan",
    "XorStep",
    "apply_update",
    "available_backends",
    "choose_update_strategy",
    "compile_plan",
    "eliminate_common_pairs",
    "execute_plan",
    "execute_plan_scalar",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "shutdown_backends",
]
