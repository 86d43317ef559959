"""The pinned certificate, plan, and plan-report hashes are tripwires."""

import dataclasses

import pytest

from repro.codes.registry import available_codes
from repro.exceptions import CertificationError
from repro.static import (
    PINNED_CERTIFICATE_HASHES,
    PINNED_PLAN_HASHES,
    PINNED_PLAN_REPORT_HASHES,
    PLAN_VERIFY_PRIMES,
    check_certificate_pins,
    check_pins,
    check_plan_pins,
    check_plan_report_pins,
    pinned_plans,
    smoke_certificates,
    verify_code_plans,
)


@pytest.fixture(scope="module")
def smoke():
    return smoke_certificates()


@pytest.fixture(scope="module")
def plans():
    return list(pinned_plans())


class TestPins:
    def test_every_smoke_certificate_is_pinned(self, smoke):
        assert {c.key for c in smoke} == set(PINNED_CERTIFICATE_HASHES)

    def test_hashes_match_pins(self, smoke):
        """Any layout change in any registered code fails here.

        If the change is intentional, regenerate the pins with
        ``python -m repro.cli certify --smoke --json`` and update
        ``repro/static/pins.py``.
        """
        mismatches = {
            c.key: (c.certificate_hash, PINNED_CERTIFICATE_HASHES.get(c.key))
            for c in smoke
            if c.certificate_hash != PINNED_CERTIFICATE_HASHES.get(c.key)
        }
        assert not mismatches, f"certificate drift: {mismatches}"
        check_pins(smoke)  # same data through the CI-gate entry point

    def test_all_smoke_claims_hold(self, smoke):
        for cert in smoke:
            assert cert.failed_claims() == [], cert.key

    def test_check_pins_rejects_unpinned(self, smoke):
        ghost = dataclasses.replace(smoke[0], code="Ghost")
        with pytest.raises(CertificationError, match="no pinned"):
            check_pins([ghost])

    def test_check_pins_rejects_drift(self, smoke):
        drifted = dataclasses.replace(smoke[0], parity_load=(9, 9, 9, 9))
        with pytest.raises(CertificationError, match="does not match"):
            check_pins([drifted])


class TestPlanPins:
    def test_every_pinned_plan_is_compiled(self, plans):
        assert {p.key for p in plans} == set(PINNED_PLAN_HASHES)

    def test_plan_hashes_match_pins(self, plans):
        """Any drift in a compiled HV schedule fails here.

        If the change is intentional (a planner improvement, a CSE
        reordering), regenerate with ``python -m repro.cli certify
        --smoke`` and update ``PINNED_PLAN_HASHES``.
        """
        mismatches = {
            p.key: (p.plan_hash, PINNED_PLAN_HASHES.get(p.key))
            for p in plans
            if p.plan_hash != PINNED_PLAN_HASHES.get(p.key)
        }
        assert not mismatches, f"plan drift: {mismatches}"
        check_plan_pins(plans)  # the CI-gate entry point
        check_plan_pins()  # and the compile-fresh default path

    def test_check_plan_pins_rejects_unpinned(self, plans):
        ghost = dataclasses.replace(plans[0], code_name="Ghost")
        with pytest.raises(CertificationError, match="no pinned"):
            check_plan_pins([ghost])

    def test_check_plan_pins_rejects_drift(self, plans):
        drifted = dataclasses.replace(plans[0], num_temps=plans[0].num_temps + 1)
        with pytest.raises(CertificationError, match="drifted"):
            check_plan_pins([drifted])


class TestPlanReportPins:
    def test_pin_table_covers_every_code_at_every_prime(self):
        expected = {
            f"{name}@{p}"
            for p in PLAN_VERIFY_PRIMES
            for name in available_codes()
        }
        assert set(PINNED_PLAN_REPORT_HASHES) == expected

    def test_report_keys_use_the_registry_parameter(self):
        # Cauchy-RS's code.p is its word size (4 for both inputs 7 and
        # 11); keying by the registry parameter keeps the pins distinct.
        assert "Cauchy-RS@7" in PINNED_PLAN_REPORT_HASHES
        assert "Cauchy-RS@11" in PINNED_PLAN_REPORT_HASHES

    def test_fresh_report_matches_its_pin(self):
        report = verify_code_plans("P-Code", 5)
        assert (
            report.report_hash == PINNED_PLAN_REPORT_HASHES["P-Code@5"]
        ), "plan-verification drift; regenerate with `repro certify --plans`"
        check_plan_report_pins([report])

    def test_rejects_unpinned_report(self):
        report = verify_code_plans("P-Code", 5)
        ghost = dataclasses.replace(report, code="Ghost")
        with pytest.raises(CertificationError, match="no pinned"):
            check_plan_report_pins([ghost])

    def test_rejects_drifted_report(self):
        report = verify_code_plans("P-Code", 5)
        drifted = dataclasses.replace(report, cols=report.cols + 1)
        with pytest.raises(CertificationError, match="does not match"):
            check_plan_report_pins([drifted])


class TestUnifiedCheckPins:
    def test_explicit_collections_check_only_those(self, smoke, plans):
        report = verify_code_plans("P-Code", 5)
        check_pins(smoke, plans, [report])  # all three tables, one call
        check_pins(certificates=smoke)  # cheap cert-only path
        check_pins(plans=plans)
        check_pins(plan_reports=[report])

    def test_unified_entry_point_reports_the_failing_table(self, smoke):
        bad = dataclasses.replace(smoke[0], code="Ghost")
        with pytest.raises(CertificationError, match="certificate"):
            check_pins(certificates=[bad])
        report = verify_code_plans("P-Code", 5)
        drifted = dataclasses.replace(report, cols=report.cols + 1)
        with pytest.raises(CertificationError, match="plan report"):
            check_pins(plan_reports=[drifted])

    def test_legacy_positional_certificates_still_work(self, smoke):
        check_pins(smoke)
        check_certificate_pins(smoke)
