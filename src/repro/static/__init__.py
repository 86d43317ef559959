"""Static verification: code certificates, plan proofs, and the repo linter.

Three pillars, all usable as library calls, CLI subcommands
(``repro certify`` / ``repro lint``), and CI gates:

- :mod:`repro.static.certify` proves the paper's structural claims
  (MDS-ness, chain lengths, parity balance, update complexity,
  recovery parallelism) from the GF(2) parity-check view alone and
  pins the resulting certificate hashes (:mod:`repro.static.pins`);
- :mod:`repro.static.planverify` symbolically executes every compiled
  :class:`~repro.engine.plan.XorPlan` over the GF(2) data-cell basis
  and proves each one computes exactly what the parity-check system
  requires — plus the P001-P004 IR lint and a claims auditor that
  re-derives the paper's complexity numbers from the *compiled*
  schedules;
- :mod:`repro.static.lint` enforces the repo's source-level contracts
  (seeded randomness, no wall clocks outside the CLI and the
  scheduler, a closed exception hierarchy, no mutable defaults, validated chain construction, no
  stale waivers) via the R001-R011 rule catalogue
  (:mod:`repro.static.rules`).
"""

from .certify import (
    SCHEMA_VERSION,
    SMOKE_PRIMES,
    CodeCertificate,
    DoubleFailureProfile,
    MDSReport,
    certify,
    certify_code,
    certify_registry,
    smoke_certificates,
)
from .lint import (
    LintReport,
    allowed_exception_names,
    default_lint_target,
    lint_paths,
    select_rules,
)
from .pins import (
    PINNED_CERTIFICATE_HASHES,
    PINNED_PLAN_HASHES,
    PINNED_PLAN_REPORT_HASHES,
    check_certificate_pins,
    check_pins,
    check_plan_pins,
    check_plan_report_pins,
    pinned_plan_reports,
    pinned_plans,
)
from .planverify import (
    PLAN_RULES,
    PLAN_VERIFY_PRIMES,
    CodeSymbols,
    PlanLintViolation,
    PlanOpCertificate,
    PlanVerificationReport,
    lint_plan,
    plan_patterns,
    plan_verification_reports,
    verify_code_plans,
    verify_plan,
)
from .rules import ALL_RULES, RULES_BY_ID, LintRule, LintViolation

__all__ = [
    "SCHEMA_VERSION",
    "SMOKE_PRIMES",
    "CodeCertificate",
    "DoubleFailureProfile",
    "MDSReport",
    "certify",
    "certify_code",
    "certify_registry",
    "smoke_certificates",
    "LintReport",
    "allowed_exception_names",
    "default_lint_target",
    "lint_paths",
    "select_rules",
    "PINNED_CERTIFICATE_HASHES",
    "PINNED_PLAN_HASHES",
    "PINNED_PLAN_REPORT_HASHES",
    "check_certificate_pins",
    "check_pins",
    "check_plan_pins",
    "check_plan_report_pins",
    "pinned_plan_reports",
    "pinned_plans",
    "PLAN_RULES",
    "PLAN_VERIFY_PRIMES",
    "CodeSymbols",
    "PlanLintViolation",
    "PlanOpCertificate",
    "PlanVerificationReport",
    "lint_plan",
    "plan_patterns",
    "plan_verification_reports",
    "verify_code_plans",
    "verify_plan",
    "ALL_RULES",
    "RULES_BY_ID",
    "LintRule",
    "LintViolation",
]
