"""Symbolic GF(2) verification of compiled XOR plans.

The engine's :class:`~repro.engine.plan.XorPlan` IR is guarded by
SHA-256 pins (drift detection) and differential tests (sampling).
This module closes the remaining gap with *proof*: every plan the
compiler can emit for an enumerated pattern family is executed over
GF(2) **symbolic values** — bit-vectors over the stripe's data-cell
basis — and its outputs are checked against the algebraically correct
expressions derived from the code's parity chains.  A plan passes only
if every output slot's symbolic value equals the reference valuation,
no live cell is clobbered, and nothing undefined is ever read.

The symbolic domain is exact, not statistical: a data cell ``d_i`` is
the unit vector ``e_i``, a parity cell is the XOR (bitmask XOR of the
masks) of its chain members in encode order, and executing a plan step
``dst = s1 ^ s2 ^ ...`` is a mask XOR.  Because XOR schedules are
linear over GF(2), symbolic equality over this basis *is* semantic
equality for every possible stripe content — one symbolic run covers
all 2^(8·element_size·cells) concrete stripes.

Three layers build on the same symbolic pass:

- :func:`verify_plan` — prove one plan correct for its op/pattern
  (raises :class:`~repro.exceptions.CertificationError` otherwise);
- :func:`lint_plan` — the IR linter, rule family P001-P004 (dead
  steps, CSE leftovers, cross-group aliasing races, non-topological
  group schedules);
- :func:`verify_code_plans` — enumerate every pattern the certificate
  covers for one ``(code, p)``, verify each compiled plan, audit the
  paper's Section IV complexity claims against the *compiled* forms,
  and freeze the result into a hash-pinned
  :class:`PlanVerificationReport` (one :class:`PlanOpCertificate` per
  op).

Pattern families (closed and enumerated, per op):

- ``encode`` — the single full-stripe schedule;
- ``recover-double`` — every disk pair (the RAID-6 tolerance);
- ``decode`` — every erasure of one or two cells (whole-disk pairs
  are covered by ``recover-double``);
- ``update`` — every single dirty data cell plus every contiguous
  logical run of up to ``cols + 1`` elements (one full row plus its
  cross-row neighbour — the shapes HV's sharing claims rest on) and
  the full-stripe write;
- ``read`` — every whole column and every single cell, each wanted
  whole with nothing free: exactly the plans a one-disk rebuild and a
  one-latent-cell repair compile, so the certificate proves the op the
  store serves.

A ``read`` plan is a decode with *partial outputs*: only its wanted
cells must finish at their valuation, the other erased cells may stay
undefined (a degraded read of part of a column proves the same way).

Every enumerated pattern is recoverable, and the compiler finishes
every recoverable pattern by elimination where peeling stalls, so an
enumerated pattern it rejects (:class:`~repro.exceptions.PlanError`)
is a compiler fault: :func:`verify_code_plans` raises
:class:`~repro.exceptions.CertificationError` naming the op and the
pattern.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable

from ..codes.base import ArrayCode
from ..codes.registry import available_codes, get_code
from ..engine.compile import compile_plan
from ..engine.plan import XorPlan
from ..exceptions import CertificationError, PlanError
from ..utils import pairs
from .certify import CodeCertificate, certify_code

#: Bump when the report dictionary layout changes; part of the hashed
#: payload, so old pins can never match a new schema.
PLAN_SCHEMA_VERSION = 1

#: The primes the canonical plan-verification set covers (the paper's
#: smoke primes plus the benchmark prime).
PLAN_VERIFY_PRIMES = (5, 7, 11)

#: Ops in certificate order.
VERIFIED_OPS = (
    "encode",
    "recover-double",
    "decode",
    "update",
    "read",
)

#: The P-rule catalogue: IR-level invariants of a healthy plan.
PLAN_RULES: dict[str, str] = {
    "P001": "dead XOR step: its result is never read and never output",
    "P002": "redundant source pair the CSE should have hoisted",
    "P003": "cross-group aliasing race: a slot written by one group is "
    "touched by another",
    "P004": "non-topological group schedule: a grouped step runs before "
    "its dependencies under concurrent execution",
}


@dataclass(frozen=True, order=True)
class PlanLintViolation:
    """One P-rule violation at one plan step."""

    rule: str
    step: int
    message: str

    def render(self) -> str:
        return f"step {self.step}: {self.rule} {self.message}"


# -- the symbolic domain ------------------------------------------------------------


class CodeSymbols:
    """The GF(2) symbolic view of one code's stripe.

    Every cell slot maps to an int bitmask over the *data-cell basis*:
    data cell ``i`` (in :attr:`ArrayCode.data_positions` order) is
    ``1 << i``, and each parity cell is the XOR of its chain members'
    masks, resolved in encode order so nested parities (RDP's
    diagonal-over-row-parity) expand all the way down to data cells.
    """

    def __init__(self, code: ArrayCode) -> None:
        self.code = code
        self.num_cells = code.rows * code.cols
        self.data_slots = tuple(
            r * code.cols + c for r, c in code.data_positions
        )
        self.data_index = {slot: i for i, slot in enumerate(self.data_slots)}
        self.parity_slots = tuple(
            r * code.cols + c for r, c in code.parity_positions
        )
        valuation: dict[int, int] = {
            slot: 1 << i for slot, i in self.data_index.items()
        }
        for chain in code.encode_order:
            mask = 0
            for r, c in chain.members:
                mask ^= valuation[r * code.cols + c]
            valuation[chain.parity[0] * code.cols + chain.parity[1]] = mask
        self.valuation = valuation

    def render_mask(self, mask: int) -> str:
        """Human-readable ``d3 ^ d7 ^ j1`` form of a symbolic value."""
        if mask == 0:
            return "0"
        terms = []
        for i in range(mask.bit_length()):
            if mask >> i & 1:
                terms.append(
                    f"d{i}" if i < len(self.data_slots) else f"j{i - len(self.data_slots)}"
                )
        return " ^ ".join(terms)


def _symbolic_execute(
    plan: XorPlan,
    init: dict[int, int],
    *,
    what: str,
) -> dict[int, int]:
    """Run ``plan`` over symbolic masks; raise on undefined reads."""
    values = dict(init)
    for i, step in enumerate(plan.steps):
        acc = 0
        for src in step.srcs:
            mask = values.get(src)
            if mask is None:
                raise CertificationError(
                    f"{what}: step {i} reads slot {src}, which holds no "
                    "defined value in this op's initial state"
                )
            acc ^= mask
        values[step.dst] = acc
    return values


def _check_no_clobber(plan: XorPlan, what: str) -> None:
    """A step writing a live cell slot outside ``outputs`` destroys data."""
    outputs = set(plan.outputs)
    for i, step in enumerate(plan.steps):
        if step.dst < plan.num_cells and step.dst not in outputs:
            raise CertificationError(
                f"{what}: step {i} writes cell slot {step.dst}, which is "
                "not a declared output — in-place execution would clobber "
                "a live element"
            )


def _describe(plan: XorPlan) -> str:
    return f"{plan.code_name}@{plan.p} {plan.op} plan (pattern {plan.pattern})"


# -- per-op verification ------------------------------------------------------------


def _verify_encode(symbols: CodeSymbols, plan: XorPlan) -> None:
    what = _describe(plan)
    if set(plan.outputs) != set(symbols.parity_slots):
        raise CertificationError(
            f"{what}: outputs {sorted(plan.outputs)} do not cover exactly "
            f"the parity slots {sorted(symbols.parity_slots)}"
        )
    _check_no_clobber(plan, what)
    # Stale parity contents are junk: give each parity slot a fresh
    # symbol outside the data basis, so a plan that reads a parity
    # before (re)writing it contaminates its result detectably.
    junk_base = len(symbols.data_slots)
    init = {slot: 1 << symbols.data_index[slot] for slot in symbols.data_slots}
    for j, slot in enumerate(symbols.parity_slots):
        init[slot] = 1 << (junk_base + j)
    values = _symbolic_execute(plan, init, what=what)
    for slot in plan.outputs:
        expect = symbols.valuation[slot]
        if values[slot] != expect:
            raise CertificationError(
                f"{what}: slot {slot} computes "
                f"{symbols.render_mask(values[slot])}, parity-check system "
                f"requires {symbols.render_mask(expect)}"
            )


def _expected_erased(symbols: CodeSymbols, plan: XorPlan) -> set[int]:
    """The slots the op/pattern semantics say the plan must repair."""
    cols = symbols.code.cols
    if plan.op == "decode":
        return set(plan.pattern)
    if plan.op == "recover-double":
        return {
            r * cols + d for d in plan.pattern for r in range(symbols.code.rows)
        }
    raise CertificationError(f"{_describe(plan)}: not a repair op")


def _verify_repair(symbols: CodeSymbols, plan: XorPlan) -> None:
    """recover-double / decode."""
    what = _describe(plan)
    erased = set(plan.erased)
    required = _expected_erased(symbols, plan)
    if erased != required:
        raise CertificationError(
            f"{what}: declares erased slots {sorted(erased)} but the "
            f"pattern requires {sorted(required)} — the plan does not "
            "repair what its key promises"
        )
    if set(plan.outputs) != erased:
        raise CertificationError(
            f"{what}: outputs {sorted(plan.outputs)} do not repair exactly "
            f"the erased slots {sorted(erased)}"
        )
    _check_no_clobber(plan, what)
    init = {
        slot: symbols.valuation[slot]
        for slot in range(symbols.num_cells)
        if slot not in erased
    }
    values = _symbolic_execute(plan, init, what=what)
    for slot in plan.outputs:
        expect = symbols.valuation[slot]
        if values[slot] != expect:
            raise CertificationError(
                f"{what}: repaired slot {slot} computes "
                f"{symbols.render_mask(values[slot])}, parity-check system "
                f"requires {symbols.render_mask(expect)}"
            )


def _verify_update(symbols: CodeSymbols, plan: XorPlan) -> None:
    """An update plan must compute exact parity deltas on a delta buffer."""
    what = _describe(plan)
    dirty = tuple(plan.pattern)
    for slot in dirty:
        if slot not in symbols.data_index:
            raise CertificationError(
                f"{what}: dirty slot {slot} is not a data cell"
            )
    _check_no_clobber(plan, what)
    dirty_mask = 0
    for slot in dirty:
        dirty_mask |= 1 << symbols.data_index[slot]
    # The delta buffer defines *only* the dirty data slots; everything
    # else is undefined, so a plan reading a clean cell fails loudly.
    init = {slot: 1 << symbols.data_index[slot] for slot in dirty}
    values = _symbolic_execute(plan, init, what=what)
    outputs = set(plan.outputs)
    for slot in outputs:
        if slot not in symbols.valuation or slot in symbols.data_index:
            raise CertificationError(
                f"{what}: output slot {slot} is not a parity cell"
            )
        expect = symbols.valuation[slot] & dirty_mask
        if values[slot] != expect:
            raise CertificationError(
                f"{what}: parity delta for slot {slot} computes "
                f"{symbols.render_mask(values[slot])}, parity-check system "
                f"requires {symbols.render_mask(expect)}"
            )
    for slot in symbols.parity_slots:
        if slot not in outputs and symbols.valuation[slot] & dirty_mask:
            raise CertificationError(
                f"{what}: parity slot {slot} depends on the dirty cells "
                "but the plan never writes its delta — the update is "
                "incomplete"
            )


def _verify_read(symbols: CodeSymbols, plan: XorPlan) -> None:
    """Decode with partial outputs: the wanted cells must finish at
    their valuation; the other erased cells may stay undefined."""
    what = _describe(plan)
    erased, wanted, _ = plan.pattern
    lost = set(erased)
    if (
        tuple(plan.erased) != erased
        or tuple(plan.outputs) != wanted
        or not wanted
        or not lost.issuperset(wanted)
    ):
        raise CertificationError(
            f"{what}: erased {list(plan.erased)} / outputs "
            f"{list(plan.outputs)} do not read the wanted cells of its pattern"
        )
    for i, step in enumerate(plan.steps):
        if step.dst < plan.num_cells and step.dst not in lost:
            raise CertificationError(
                f"{what}: step {i} writes live cell slot {step.dst}"
            )
    init = {
        slot: symbols.valuation[slot]
        for slot in range(symbols.num_cells)
        if slot not in lost
    }
    values = _symbolic_execute(plan, init, what=what)
    for slot in wanted:
        expect = symbols.valuation[slot]
        if values[slot] != expect:
            raise CertificationError(
                f"{what}: wanted slot {slot} computes "
                f"{symbols.render_mask(values[slot])}, parity-check system "
                f"requires {symbols.render_mask(expect)}"
            )


def verify_plan(
    code: ArrayCode,
    plan: XorPlan,
    *,
    symbols: CodeSymbols | None = None,
    lint: bool = True,
) -> None:
    """Prove one compiled plan correct; raise :class:`CertificationError`.

    Runs the P-rule linter first (``lint=False`` skips it — the
    mutation tests use that to reach the semantic checks), then the
    op-specific symbolic verification.
    """
    if (plan.rows, plan.cols) != (code.rows, code.cols):
        raise CertificationError(
            f"{_describe(plan)}: geometry {plan.rows}x{plan.cols} does not "
            f"match {code.name}(p={code.p})"
        )
    if lint:
        violations = lint_plan(plan)
        if violations:
            rendered = "; ".join(v.render() for v in violations)
            raise CertificationError(
                f"{_describe(plan)}: IR lint failed: {rendered}"
            )
    symbols = symbols if symbols is not None else CodeSymbols(code)
    if plan.op == "encode":
        _verify_encode(symbols, plan)
    elif plan.op == "update":
        _verify_update(symbols, plan)
    elif plan.op == "read":
        _verify_read(symbols, plan)
    else:
        _verify_repair(symbols, plan)


# -- the IR linter (P001-P004) ------------------------------------------------------


def lint_plan(plan: XorPlan) -> tuple[PlanLintViolation, ...]:
    """Apply the P-rule catalogue to one plan, in rule/step order."""
    out: list[PlanLintViolation] = []
    out.extend(_lint_dead_steps(plan))
    out.extend(_lint_cse_leftovers(plan))
    out.extend(_lint_groups(plan))
    return tuple(sorted(out))


def _lint_dead_steps(plan: XorPlan) -> list[PlanLintViolation]:
    """P001: a step whose result is never read and never output."""
    outputs = set(plan.outputs)
    out: list[PlanLintViolation] = []
    for i, step in enumerate(plan.steps):
        live = step.dst in outputs
        for later in plan.steps[i + 1 :]:
            if step.dst in later.srcs:
                live = True
                break
            if later.dst == step.dst:
                # Overwritten before any read: dead even for outputs.
                live = False
                break
        if not live:
            out.append(
                PlanLintViolation(
                    rule="P001",
                    step=i,
                    message=f"result in slot {step.dst} is never read "
                    "and never reaches an output",
                )
            )
    return out


def _lint_cse_leftovers(plan: XorPlan) -> list[PlanLintViolation]:
    """P002: an unfolded pure source pair shared by two or more steps.

    Mirrors :func:`repro.engine.compile.eliminate_common_pairs`'s
    notion of purity: a slot is CSE-pure when no step writes it as a
    cell, or when it is a scratch temporary (temporaries are pure
    inputs for later factoring rounds by construction).
    """
    written_cells = {
        step.dst for step in plan.steps if step.dst < plan.num_cells
    }
    from collections import Counter

    counts: Counter = Counter()
    first_step: dict[tuple[int, int], int] = {}
    for i, step in enumerate(plan.steps):
        pure = sorted(
            s
            for s in step.srcs
            if s >= plan.num_cells or s not in written_cells
        )
        for ai, a in enumerate(pure):
            for b in pure[ai + 1 :]:
                counts[(a, b)] += 1
                first_step.setdefault((a, b), i)
    out = []
    for (a, b), n in sorted(counts.items()):
        if n >= 2:
            out.append(
                PlanLintViolation(
                    rule="P002",
                    step=first_step[(a, b)],
                    message=f"source pair ({a}, {b}) occurs in {n} steps; "
                    "CSE should hoist it into a temporary",
                )
            )
    return out


def _lint_groups(plan: XorPlan) -> list[PlanLintViolation]:
    """P003 (cross-group races) and P004 (non-topological groups)."""
    if not plan.groups:
        return []
    out: list[PlanLintViolation] = []
    defined0 = set(range(plan.num_cells)) - set(plan.erased)
    preamble_writes = {
        plan.steps[i].dst for i in range(plan.preamble)
    }
    group_of: dict[int, int] = {}
    group_writes: list[set[int]] = []
    group_reads: list[set[int]] = []
    for gi, group in enumerate(plan.groups):
        writes: set[int] = set()
        reads: set[int] = set()
        if list(group) != sorted(group):
            out.append(
                PlanLintViolation(
                    rule="P004",
                    step=group[0],
                    message=f"group {gi} schedules steps {list(group)} out "
                    "of program order",
                )
            )
        own: set[int] = set()
        for idx in group:
            group_of[idx] = gi
            step = plan.steps[idx]
            for src in step.srcs:
                reads.add(src)
                if src not in defined0 | preamble_writes | own:
                    # Defined only in another group (or later): under
                    # concurrent group execution this read races or
                    # sees garbage.  The cross-group case is also
                    # reported as P003 below; the strictly-undefined
                    # case is a pure scheduling bug.
                    other = any(
                        src in gw
                        for gj, gw in enumerate(group_writes)
                        if gj != gi
                    )
                    if not other:
                        out.append(
                            PlanLintViolation(
                                rule="P004",
                                step=idx,
                                message=f"step reads slot {src} that no "
                                "preamble step or earlier step of its own "
                                "group defines",
                            )
                        )
            own.add(step.dst)
            writes.add(step.dst)
        group_writes.append(writes)
        group_reads.append(reads)
    for gi, writes in enumerate(group_writes):
        for gj in range(gi + 1, len(plan.groups)):
            ww = writes & group_writes[gj]
            for slot in sorted(ww):
                out.append(
                    PlanLintViolation(
                        rule="P003",
                        step=min(
                            i for i in plan.groups[gi] if plan.steps[i].dst == slot
                        ),
                        message=f"slot {slot} is written by groups {gi} "
                        f"and {gj}; concurrent execution races",
                    )
                )
            for slot in sorted(
                (writes & group_reads[gj]) | (group_writes[gj] & group_reads[gi])
            ):
                if slot in ww:
                    continue
                out.append(
                    PlanLintViolation(
                        rule="P003",
                        step=min(
                            i
                            for i in (*plan.groups[gi], *plan.groups[gj])
                            if plan.steps[i].dst == slot or slot in plan.steps[i].srcs
                        ),
                        message=f"slot {slot} is written by one of groups "
                        f"{gi}/{gj} and read by the other; concurrent "
                        "execution races",
                    )
                )
    return out


# -- pattern enumeration ------------------------------------------------------------


def plan_patterns(code: ArrayCode, op: str) -> list[tuple]:
    """The closed pattern family the certificate covers for ``op``."""
    num_cells = code.rows * code.cols
    if op == "encode":
        return [()]
    if op == "recover-double":
        return list(pairs(code.cols))
    if op == "decode":
        singles = [(slot,) for slot in range(num_cells)]
        doubles = [(a, b) for a, b in pairs(num_cells)]
        return singles + doubles
    if op == "update":
        data = [r * code.cols + c for r, c in code.data_positions]
        n = len(data)
        seen: set[tuple[int, ...]] = set()
        patterns: list[tuple] = []
        max_run = min(n, code.cols + 1)
        for start in range(n):
            for width in range(1, max_run + 1):
                if start + width > n:
                    break
                pat = tuple(sorted(data[start : start + width]))
                if pat not in seen:
                    seen.add(pat)
                    patterns.append(pat)
        full = tuple(sorted(data))
        if full not in seen:
            patterns.append(full)
        return patterns
    if op == "read":
        columns = [tuple(range(d, num_cells, code.cols)) for d in range(code.cols)]
        cells = [(slot,) for slot in range(num_cells)]
        return [(lost, lost, ()) for lost in columns + cells]
    raise CertificationError(f"no pattern family for op {op!r}")


# -- certificates -------------------------------------------------------------------


@dataclass(frozen=True)
class PlanOpCertificate:
    """The verified summary of one ``(code, p, op)`` pattern family.

    ``plans_digest`` is the SHA-256 over every verified plan's
    ``pattern -> plan_hash`` line, so the certificate transitively pins
    the exact schedules it proved — the digest, not per-plan pins, is
    what CI diffs.
    """

    code: str
    param: int
    op: str
    patterns_verified: int
    steps_total: int
    xors_total: int
    xors_min: int
    xors_max: int
    temps_max: int
    rounds_max: int
    groups_min: int
    groups_max: int
    plans_digest: str

    @property
    def key(self) -> str:
        return f"{self.code}@{self.param}:{self.op}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "param": self.param,
            "op": self.op,
            "patterns_verified": self.patterns_verified,
            "steps_total": self.steps_total,
            "xors_total": self.xors_total,
            "xors_min": self.xors_min,
            "xors_max": self.xors_max,
            "temps_max": self.temps_max,
            "rounds_max": self.rounds_max,
            "groups_min": self.groups_min,
            "groups_max": self.groups_max,
            "plans_digest": self.plans_digest,
        }


@dataclass(frozen=True)
class PlanVerificationReport:
    """Every verified op certificate for one ``(code, p)``, plus claims.

    ``param`` is the registry parameter the code was instantiated with
    (it keys the pin table — ``code_p`` can collide across parameters
    for Cauchy-RS, whose ``p`` is its auto-chosen word size).
    """

    code: str
    param: int
    code_p: int
    rows: int
    cols: int
    ops: tuple[PlanOpCertificate, ...]
    claims: dict[str, bool] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.code}@{self.param}"

    @property
    def patterns_verified(self) -> int:
        return sum(op.patterns_verified for op in self.ops)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "code": self.code,
            "param": self.param,
            "code_p": self.code_p,
            "rows": self.rows,
            "cols": self.cols,
            "ops": {cert.op: cert.to_dict() for cert in self.ops},
            "claims": dict(sorted(self.claims.items())),
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @cached_property
    def report_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def failed_claims(self) -> list[str]:
        return [name for name, holds in sorted(self.claims.items()) if not holds]


def _audit_claims(
    code: ArrayCode,
    cert: CodeCertificate,
    plans_by_op: dict[str, list[XorPlan]],
) -> dict[str, bool]:
    """Re-derive the paper's complexity claims from the compiled plans.

    Each claim compares a quantity read off the *verified symbolic
    forms* (the plans that actually execute) with the chain-model
    quantity the code certificate asserts — a cross-layer tripwire
    between :mod:`repro.static.certify` and :mod:`repro.engine`.
    """
    claims: dict[str, bool] = {}

    singles = [
        plan
        for plan in plans_by_op.get("update", [])
        if len(plan.pattern) == 1
    ]
    writes = sorted(len(plan.outputs) for plan in singles)
    if writes:
        mean = sum(writes) / len(writes)
        claims["plan_update_complexity_matches_chain_model"] = (
            writes[0] == cert.update_complexity_min
            and writes[-1] == cert.update_complexity_max
            and abs(mean - cert.update_complexity_mean) < 1e-9
        )

    encode_plans = plans_by_op.get("encode", [])
    if encode_plans:
        chain_xors = sum(len(ch.members) - 1 for ch in code.chains)
        claims["plan_encode_xors_within_chain_model"] = all(
            0 < plan.xors_per_word <= chain_xors for plan in encode_plans
        )

    doubles = plans_by_op.get("recover-double", [])
    if doubles and cert.double_failure.fully_peelable:
        claims["plan_recover_double_rounds_match_profile"] = (
            max(plan.rounds for plan in doubles)
            == cert.double_failure.max_rounds
        )

    if code.name == "HV":
        claims["plan_recover_double_four_chains"] = bool(doubles) and all(
            len(plan.groups) == 4 for plan in doubles
        )
        claims["plan_update_two_parity_writes"] = bool(singles) and all(
            len(plan.outputs) == 2 for plan in singles
        )
        one_cell = [
            plan for plan in plans_by_op.get("read", []) if len(plan.outputs) == 1
        ]
        claims["plan_read_one_cell_chain_length_p_minus_2"] = bool(
            one_cell
        ) and all(
            len(plan.steps) == 1
            and len(plan.steps[0].srcs) == (code.p - 2) - 1
            for plan in one_cell
        )
    return claims


def verify_code_plans(
    name: str,
    param: int,
    *,
    certificate: CodeCertificate | None = None,
) -> PlanVerificationReport:
    """Symbolically verify every enumerated plan of one ``(code, p)``.

    Compiles each pattern of every op family fresh (no shared cache,
    so a poisoned process-wide cache cannot mask a compiler bug),
    proves it with :func:`verify_plan`, audits the complexity claims
    against ``certificate`` (derived on the fly when not supplied),
    and returns the hashable report.  The first failing plan raises
    :class:`CertificationError` with its op and pattern.
    """
    code = get_code(name, param)
    cert = certificate if certificate is not None else certify_code(code)
    symbols = CodeSymbols(code)
    op_certs: list[PlanOpCertificate] = []
    plans_by_op: dict[str, list[XorPlan]] = {}
    for op in VERIFIED_OPS:
        verified: list[XorPlan] = []
        digest_lines: list[str] = []
        for pattern in plan_patterns(code, op):
            try:
                plan = compile_plan(code, op, pattern, cache=None)
            except PlanError as exc:
                raise CertificationError(
                    f"{code.name}@{param} {op} pattern {pattern}: the compiler "
                    f"rejects a recoverable pattern: {exc}"
                ) from exc
            verify_plan(code, plan, symbols=symbols)
            verified.append(plan)
            digest_lines.append(
                f"{json.dumps(list(plan.pattern))}={plan.plan_hash}"
            )
        plans_by_op[op] = verified
        xors = [plan.xors_per_word for plan in verified]
        op_certs.append(
            PlanOpCertificate(
                code=code.name,
                param=param,
                op=op,
                patterns_verified=len(verified),
                steps_total=sum(len(plan.steps) for plan in verified),
                xors_total=sum(xors),
                xors_min=min(xors, default=0),
                xors_max=max(xors, default=0),
                temps_max=max(
                    (plan.num_temps for plan in verified), default=0
                ),
                rounds_max=max((plan.rounds for plan in verified), default=0),
                groups_min=min(
                    (len(plan.groups) for plan in verified), default=0
                ),
                groups_max=max(
                    (len(plan.groups) for plan in verified), default=0
                ),
                plans_digest=hashlib.sha256(
                    "\n".join(sorted(digest_lines)).encode()
                ).hexdigest(),
            )
        )
    claims = _audit_claims(code, cert, plans_by_op)
    return PlanVerificationReport(
        code=code.name,
        param=param,
        code_p=code.p,
        rows=code.rows,
        cols=code.cols,
        ops=tuple(op_certs),
        claims=claims,
    )


def plan_verification_reports(
    primes: tuple[int, ...] = PLAN_VERIFY_PRIMES,
    code_names: Iterable[str] | None = None,
) -> list[PlanVerificationReport]:
    """Reports for every (code, prime) pair, in deterministic order."""
    names = tuple(code_names) if code_names is not None else available_codes()
    return [verify_code_plans(name, p) for p in primes for name in names]
