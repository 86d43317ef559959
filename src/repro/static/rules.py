"""The repo-specific lint rule catalogue (R001-R011).

Each rule is an :class:`ast`-level check with a stable identifier,
applied per file by :mod:`repro.static.lint`.  The rules encode
contracts this codebase established in earlier PRs but never enforced
at the source level:

- **R001** — randomness must thread through
  :func:`repro.utils.resolve_rng`: no unseeded ``random.Random()`` /
  ``np.random.default_rng()``, and no calls against the *global* RNGs
  (``random.random()``, ``np.random.rand()``, ...) anywhere.
- **R002** — no ``repro.*`` module reads a wall clock except the two
  allow-listed ones: ``repro.cli`` (the ``[N table(s) in X s]`` line)
  and ``repro.service.scheduler`` (deadlines and served-latency
  accounting).  Simulated time comes from the event queue, and speeds
  are measured from outside the package by ``python3 -m bench``.
- **R003** — every raised exception type belongs to the exported
  :mod:`repro.exceptions` hierarchy (``NotImplementedError`` is the
  one idiomatic exception).
- **R004** — no mutable default arguments.
- **R005** — :class:`~repro.codes.base.ParityChain` is constructed
  only inside ``_build_chains`` implementations, so every layout is
  validated by the :attr:`~repro.codes.base.ArrayCode.chains` walk.
- **R006** — no per-word Python XOR loops inside :mod:`repro.engine`:
  the engine exists to run word-wide kernels, so a ``for i in
  range(...)`` whose body XORs subscripted elements is a performance
  bug there (the deliberate scalar oracle carries a waiver).
- **R007** — :mod:`repro.journal` mutates disk state only inside the
  two sanctioned replay functions (``apply_record`` / ``undo_record``):
  every byte the journal touches must be covered by a framed record,
  so a stray stripe write anywhere else in the package would bypass
  the write-ahead contract.
- **R008** — :mod:`repro.service` touches shared mutable state only
  under the owning lock: an assignment or mutator call on a ``self``
  attribute must sit lexically inside a ``with`` whose context
  expression names a lock (``self._lock``, ``self._cv``,
  ``.write_locked()``, ...).  Constructors, and methods whose name
  ends in ``_locked`` (the repo convention for "caller holds the
  lock"), are exempt; single-owner state carries an explicit waiver.
- **R010** — inside :mod:`repro.engine.backends`, every backend entry
  point (``execute`` / ``execute_*``, ``encode``, ``gather``,
  ``update``) accepts the ``stats`` seam, so no kernel work runs off
  the :class:`~repro.array.iostats.IOStats` ledger.
- **R011** — only :mod:`repro.engine.backends` reads an engine name:
  anywhere else, comparing an ``engine`` / ``backend`` expression with
  a string literal re-decides the seam ``resolve_backend`` owns.

A violating line can be waived with a trailing ``# noqa: RXXX``
comment (or a bare ``# noqa`` to waive every rule on the line).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class LintViolation:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may consult about the file under analysis.

    ``module`` is the dotted module path relative to the package root
    (e.g. ``repro.sim.fleet``), empty when the file is outside any
    package.  ``allowed_exceptions`` feeds R003 and is computed once
    per lint run from ``repro/exceptions.py`` and the package
    ``__init__``.
    """

    path: str
    module: str
    tree: ast.Module
    lines: list[str]
    allowed_exceptions: frozenset[str]
    #: import alias -> canonical dotted name, e.g. ``np -> numpy`` or
    #: ``default_rng -> numpy.random.default_rng``.
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if node.module:
                        self.aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

    def resolve_call(self, node: ast.expr) -> str | None:
        """Canonical dotted name of a called expression, if resolvable.

        ``np.random.default_rng`` with ``import numpy as np`` resolves
        to ``numpy.random.default_rng``; a bare name resolves through
        ``from``-import aliases.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = self.aliases.get(cur.id, cur.id)
        return ".".join([root, *reversed(parts)])


class LintRule:
    """Base class: subclasses set ``rule_id``/``summary`` and ``check``.

    Rules with ``driver_level = True`` are catalogue entries whose
    logic lives in the lint driver (they need to see other rules'
    *raw* results, which a per-file ``check`` cannot); their own
    ``check`` yields nothing.
    """

    rule_id = "R000"
    summary = "abstract rule"
    driver_level = False

    def check(self, ctx: FileContext) -> list[LintViolation]:  # pragma: no cover
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> LintViolation:
        return LintViolation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )


def _enclosing_functions(tree: ast.Module) -> dict[ast.AST, list[str]]:
    """Map every node to the names of its enclosing function defs."""
    stack: list[str] = []
    owners: dict[ast.AST, list[str]] = {}

    def visit(node: ast.AST) -> None:
        is_fn = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_fn:
            stack.append(node.name)
        for child in ast.iter_child_nodes(node):
            owners[child] = list(stack)
            visit(child)
        if is_fn:
            stack.pop()

    owners[tree] = []
    visit(tree)
    return owners


def _is_none_or_missing_seed(call: ast.Call) -> bool:
    """True when a RNG constructor call pins no seed."""
    if not call.args and not call.keywords:
        return True
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for kw in call.keywords:
        if kw.arg in ("seed", "x", None):
            return isinstance(kw.value, ast.Constant) and kw.value.value is None
    return True


class UnseededRandomRule(LintRule):
    """R001: randomness must flow through ``repro.utils.resolve_rng``."""

    rule_id = "R001"
    summary = "unseeded or global-state RNG outside repro.utils.resolve_rng"

    #: module-level functions that touch the global `random` state.
    GLOBAL_RANDOM = frozenset(
        {
            "random", "seed", "randint", "randrange", "choice", "choices",
            "shuffle", "sample", "uniform", "random_sample", "getrandbits",
            "gauss", "normalvariate", "expovariate", "betavariate",
        }
    )
    #: legacy numpy global-state entry points.
    GLOBAL_NP_RANDOM = frozenset(
        {
            "rand", "randn", "randint", "random", "random_sample", "choice",
            "shuffle", "permutation", "seed", "uniform", "normal",
            "exponential", "standard_normal", "bytes",
        }
    )

    def check(self, ctx: FileContext) -> list[LintViolation]:
        owners = _enclosing_functions(ctx.tree)
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call(node.func)
            if name is None:
                continue
            inside_resolver = "resolve_rng" in owners.get(node, [])
            if name == "numpy.random.default_rng":
                if not inside_resolver:
                    out.append(
                        self.violation(
                            ctx,
                            node,
                            "call repro.utils.resolve_rng(seed), not "
                            "np.random.default_rng, so generators thread",
                        )
                    )
            elif name == "random.Random":
                if _is_none_or_missing_seed(node):
                    out.append(
                        self.violation(
                            ctx, node, "random.Random() without an explicit seed"
                        )
                    )
            elif name.startswith("random.") and name.split(".", 1)[1] in (
                self.GLOBAL_RANDOM
            ):
                out.append(
                    self.violation(
                        ctx,
                        node,
                        f"{name}() uses the global RNG; draw from a threaded "
                        "generator instead",
                    )
                )
            elif name.startswith("numpy.random.") and name.split(".")[-1] in (
                self.GLOBAL_NP_RANDOM
            ):
                out.append(
                    self.violation(
                        ctx,
                        node,
                        f"{name}() uses numpy's legacy global RNG; draw from "
                        "a threaded Generator instead",
                    )
                )
        return out


class WallClockRule(LintRule):
    """R002: only the allow-listed modules may read wall clocks."""

    rule_id = "R002"
    #: The CLI's ``[N table(s) in X s]`` line, and the scheduler's
    #: deadlines and served-latency accounting.
    ALLOWED_MODULES = ("repro.cli", "repro.service.scheduler")
    summary = "wall-clock read outside " + " / ".join(ALLOWED_MODULES)
    BANNED = frozenset(
        {
            "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
            "time.perf_counter", "time.perf_counter_ns",
            "datetime.datetime.now", "datetime.datetime.utcnow",
            "datetime.datetime.today", "datetime.date.today",
        }
    )

    def check(self, ctx: FileContext) -> list[LintViolation]:
        in_package = ctx.module == "repro" or ctx.module.startswith("repro.")
        if not in_package or ctx.module in self.ALLOWED_MODULES:
            return []
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call(node.func)
            if name in self.BANNED:
                out.append(
                    self.violation(
                        ctx,
                        node,
                        f"{name}() is a {self.summary}; simulated time comes "
                        "from the event clock and speeds from `python3 -m bench`",
                    )
                )
        return out


class ExceptionHierarchyRule(LintRule):
    """R003: raise only exported ``repro.exceptions`` types."""

    rule_id = "R003"
    summary = "raised exception type outside the exported repro.exceptions hierarchy"

    #: idiomatic builtins that stay legal.
    TOLERATED = frozenset({"NotImplementedError", "StopIteration"})

    def check(self, ctx: FileContext) -> list[LintViolation]:
        out: list[LintViolation] = []
        builtin_exceptions = {
            name
            for name in dir(builtins)
            if isinstance(getattr(builtins, name), type)
            and issubclass(getattr(builtins, name), BaseException)
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if not isinstance(target, ast.Name):
                continue  # re-raise of a variable / attribute: out of scope
            name = target.id
            looks_like_class = (
                name in builtin_exceptions
                or name.endswith("Error")
                or name.endswith("Exception")
            )
            if not looks_like_class:
                continue  # a bound variable, e.g. `raise exc`
            if name in self.TOLERATED or name in ctx.allowed_exceptions:
                continue
            out.append(
                self.violation(
                    ctx,
                    node,
                    f"raise of {name}; use (or add) an exported "
                    "repro.exceptions type",
                )
            )
        return out


class MutableDefaultRule(LintRule):
    """R004: no mutable default arguments."""

    rule_id = "R004"
    summary = "mutable default argument"

    MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.expr, ctx: FileContext) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = ctx.resolve_call(node.func)
            return name in self.MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> list[LintViolation]:
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default, ctx):
                    out.append(
                        self.violation(
                            ctx,
                            default,
                            f"mutable default in {node.name}(); "
                            "use None and construct inside",
                        )
                    )
        return out


class ChainConstructionRule(LintRule):
    """R005: ``ParityChain(...)`` only inside ``_build_chains``."""

    rule_id = "R005"
    summary = "ParityChain constructed outside a _build_chains implementation"

    def check(self, ctx: FileContext) -> list[LintViolation]:
        owners = _enclosing_functions(ctx.tree)
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name != "ParityChain":
                continue
            if "_build_chains" in owners.get(node, []):
                continue
            out.append(
                self.violation(
                    ctx,
                    node,
                    "construct ParityChain only inside _build_chains so the "
                    "layout passes the chains validation walk",
                )
            )
        return out


class PerWordLoopRule(LintRule):
    """R006: no per-word Python XOR loops inside ``repro.engine``."""

    rule_id = "R006"
    summary = "per-word Python XOR loop inside repro.engine (use word-wide kernels)"

    SCOPED_PREFIXES = ("repro.engine",)

    def _is_subscript_xor(self, node: ast.AST) -> bool:
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.BitXor)
            and isinstance(node.target, ast.Subscript)
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
            return isinstance(node.left, ast.Subscript) or isinstance(
                node.right, ast.Subscript
            )
        return False

    def check(self, ctx: FileContext) -> list[LintViolation]:
        scoped = any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self.SCOPED_PREFIXES
        )
        if not scoped:
            return []
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            if not (
                isinstance(node.iter, ast.Call)
                and ctx.resolve_call(node.iter.func) == "range"
            ):
                continue
            if any(self._is_subscript_xor(inner) for inner in ast.walk(node)):
                out.append(
                    self.violation(
                        ctx,
                        node,
                        "per-word XOR loop in engine code; issue one "
                        "word-wide numpy kernel instead",
                    )
                )
        return out


class JournalMutationRule(LintRule):
    """R007: journal code mutates stripes only in sanctioned replayers."""

    rule_id = "R007"
    summary = (
        "disk mutation in repro.journal outside apply_record/undo_record "
        "(every journal-driven byte must come from a framed record)"
    )

    SCOPED_PREFIXES = ("repro.journal",)
    #: the only functions allowed to touch stripe state.
    SANCTIONED = frozenset({"apply_record", "undo_record"})
    #: Stripe methods that mutate disk contents or fault flags.
    MUTATORS = frozenset(
        {
            "set", "erase", "erase_disks", "fill_random",
            "mark_latent", "flip_bits",
        }
    )

    def _subscript_hits_data(self, node: ast.expr) -> bool:
        """True when a subscript chain bottoms out at ``.data``/``.state``."""
        cur = node
        while isinstance(cur, ast.Subscript):
            cur = cur.value
        return isinstance(cur, ast.Attribute) and cur.attr in ("data", "state")

    def check(self, ctx: FileContext) -> list[LintViolation]:
        scoped = any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self.SCOPED_PREFIXES
        )
        if not scoped:
            return []
        owners = _enclosing_functions(ctx.tree)
        out: list[LintViolation] = []

        def sanctioned(node: ast.AST) -> bool:
            return bool(self.SANCTIONED & set(owners.get(node, [])))

        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and (
                        self._subscript_hits_data(target)
                    ):
                        if not sanctioned(node):
                            out.append(
                                self.violation(
                                    ctx,
                                    node,
                                    "stripe buffer or state write outside "
                                    "apply_record/undo_record; journal code "
                                    "may only mutate disks through a framed "
                                    "record replay",
                                )
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self.MUTATORS
                    and not sanctioned(node)
                ):
                    out.append(
                        self.violation(
                            ctx,
                            node,
                            f".{func.attr}() mutator call outside "
                            "apply_record/undo_record; journal code may only "
                            "mutate disks through a framed record replay",
                        )
                    )
        return out


class UnlockedSharedStateRule(LintRule):
    """R008: service code touches shared state only under its lock.

    :mod:`repro.service` is the one package where multiple threads
    share objects, so it gets the discipline the rest of the repo
    never needs: any mutation of a ``self`` attribute — assignment,
    augmented assignment, a write through a subscript chain, or a
    mutator-method call — must sit lexically inside a ``with`` block
    whose context expression names a lock.  "Names a lock" means any
    name or attribute containing ``lock`` or ``_cv`` (``self._lock``,
    ``self._cv``, ``pool.lock(s).write_locked()``, ...).

    Exemptions, each encoding a real concurrency argument rather than
    a hole:

    - ``__init__``/``__post_init__`` — no second thread can hold a
      reference during construction;
    - methods whose name ends in ``_locked`` — the repo convention for
      "caller already holds the owning lock" (the suffix makes the
      contract grep-able at every call site);
    - a ``noqa: R008`` waiver comment — for genuinely single-owner state
      such as a worker thread's private ledger, where the waiver text
      documents the ownership argument.
    """

    rule_id = "R008"
    summary = (
        "shared mutable state touched outside the owning lock in "
        "repro.service"
    )

    SCOPED_PREFIXES = ("repro.service",)
    EXEMPT_FUNCTIONS = frozenset({"__init__", "__post_init__"})
    #: method names that mutate containers in place.
    MUTATORS = frozenset(
        {
            "append", "appendleft", "extend", "insert", "add", "update",
            "pop", "popleft", "popitem", "remove", "discard", "clear",
            "setdefault", "sort", "reverse",
        }
    )

    @staticmethod
    def _mentions_lock(expr: ast.expr) -> bool:
        """True when a with-item expression names a lock or condition."""
        for node in ast.walk(expr):
            name = None
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            if name is not None and ("lock" in name.lower() or "_cv" in name):
                return True
        return False

    @classmethod
    def _enclosing_guards(cls, tree: ast.Module) -> dict[ast.AST, bool]:
        """Map every node to "is lexically inside a lock-guarded with"."""
        guarded: dict[ast.AST, bool] = {}
        depth = 0

        def visit(node: ast.AST) -> None:
            nonlocal depth
            is_guard = isinstance(node, (ast.With, ast.AsyncWith)) and any(
                cls._mentions_lock(item.context_expr) for item in node.items
            )
            if is_guard:
                depth += 1
            for child in ast.iter_child_nodes(node):
                guarded[child] = depth > 0
                visit(child)
            if is_guard:
                depth -= 1

        guarded[tree] = False
        visit(tree)
        return guarded

    @staticmethod
    def _roots_at_self(expr: ast.expr) -> bool:
        """True when an attribute/subscript chain bottoms out at ``self``."""
        cur = expr
        while isinstance(cur, (ast.Attribute, ast.Subscript)):
            cur = cur.value
        return isinstance(cur, ast.Name) and cur.id == "self"

    def _self_targets(self, target: ast.expr):
        """Yield the parts of an assignment target that hit ``self``."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._self_targets(elt)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            if self._roots_at_self(target):
                yield target

    def check(self, ctx: FileContext) -> list[LintViolation]:
        scoped = any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self.SCOPED_PREFIXES
        )
        if not scoped:
            return []
        owners = _enclosing_functions(ctx.tree)
        guarded = self._enclosing_guards(ctx.tree)
        out: list[LintViolation] = []

        def exempt(node: ast.AST) -> bool:
            names = owners.get(node, [])
            if not names:
                return True  # module level: import-time, single-threaded
            return any(
                name in self.EXEMPT_FUNCTIONS or name.endswith("_locked")
                for name in names
            )

        for node in ast.walk(ctx.tree):
            if guarded.get(node, False) or exempt(node):
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for hit in self._self_targets(target):
                        out.append(
                            self.violation(
                                ctx,
                                node,
                                "mutation of shared attribute "
                                f"'{ast.unparse(hit)}' outside the owning "
                                "lock; wrap it in the guarding 'with' or "
                                "waive single-owner state explicitly",
                            )
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self.MUTATORS
                    and self._roots_at_self(func.value)
                ):
                    out.append(
                        self.violation(
                            ctx,
                            node,
                            f".{func.attr}() on shared attribute "
                            f"'{ast.unparse(func.value)}' outside the "
                            "owning lock; wrap it in the guarding 'with' "
                            "or waive single-owner state explicitly",
                        )
                    )
        return out


class StaleNoqaRule(LintRule):
    """R009: a ``# noqa: RXXX`` waiver that no longer waives anything.

    A waiver outlives the violation it was written for when the code
    under it is refactored — and from then on it silently swallows any
    *future* violation of that rule on the line.  The audit re-runs
    the whole catalogue with waivers ignored and flags every explicit
    ``RXXX`` code that suppresses no raw violation on its line (bare
    ``# noqa`` and foreign codes like ruff's ``E731`` are out of
    scope).  Driver-level: the logic lives in
    :func:`repro.static.lint.lint_paths`, because a per-file rule
    cannot observe the other rules' pre-waiver results.
    """

    rule_id = "R009"
    summary = "stale noqa waiver suppresses no violation"
    driver_level = True

    def check(self, ctx: FileContext) -> list[LintViolation]:
        return []


def _in_backends(ctx: FileContext) -> bool:
    return ctx.module == "repro.engine.backends" or ctx.module.startswith(
        "repro.engine.backends."
    )


class BackendHygieneRule(LintRule):
    """R010: every backend entry point takes the ``stats`` seam.

    Inside ``repro.engine.backends``, a function named ``execute``,
    ``execute_*``, ``encode``, ``gather`` or ``update`` must take a
    ``stats`` parameter, so no backend entry point can run kernels off
    the :class:`~repro.array.iostats.IOStats` ledger.
    """

    rule_id = "R010"
    summary = "backend entry point without the IOStats seam"

    ENTRY_POINTS = frozenset({"execute", "encode", "gather", "update"})

    def check(self, ctx: FileContext) -> list[LintViolation]:
        if not _in_backends(ctx):
            return []
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in self.ENTRY_POINTS and not node.name.startswith(
                "execute_"
            ):
                continue
            args = node.args
            names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            if "stats" not in names:
                out.append(
                    self.violation(
                        ctx,
                        node,
                        f"backend entry point {node.name}() has no 'stats' "
                        "parameter; kernel work must be chargeable to the "
                        "IOStats ledger",
                    )
                )
        return out


class EngineNameRule(LintRule):
    """R011: no engine-name comparison outside the resolver.

    ``resolve_backend`` turns an ``engine=`` string into the object
    that computes the bytes; a caller comparing the string itself
    re-decides that seam by hand.  Flagged, in the ``repro`` package
    outside ``repro.engine.backends``: a comparison with a string
    literal (or a tuple, list or set of them) on one side and a name,
    attribute or call mentioning ``engine`` or ``backend`` on another.
    """

    rule_id = "R011"
    summary = "engine name compared outside repro.engine.backends"

    @staticmethod
    def _is_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(map(EngineNameRule._is_literal, node.elts))
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    @staticmethod
    def _names_engine(node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        name = getattr(node, "id", None) or getattr(node, "attr", "")
        return "engine" in name.lower() or "backend" in name.lower()

    def check(self, ctx: FileContext) -> list[LintViolation]:
        if _in_backends(ctx) or ctx.module.split(".")[0] != "repro":
            return []
        return [
            self.violation(
                ctx,
                node,
                f"engine name compared ({ast.unparse(node)}); call the "
                "object resolve_backend returns instead of branching on it",
            )
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Compare)
            and any(map(self._is_literal, [node.left, *node.comparators]))
            and any(map(self._names_engine, [node.left, *node.comparators]))
        ]


#: The catalogue, in rule-id order.
ALL_RULES: tuple[LintRule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    ExceptionHierarchyRule(),
    MutableDefaultRule(),
    ChainConstructionRule(),
    PerWordLoopRule(),
    JournalMutationRule(),
    UnlockedSharedStateRule(),
    StaleNoqaRule(),
    BackendHygieneRule(),
    EngineNameRule(),
)

RULES_BY_ID: dict[str, LintRule] = {rule.rule_id: rule for rule in ALL_RULES}
