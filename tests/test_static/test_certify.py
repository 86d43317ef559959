"""Tests for the static code certifier."""

import json

import pytest

from repro.codes.registry import EVALUATED_CODE_NAMES, available_codes, get_code
from repro.core.hvcode import HVCode
from repro.exceptions import CertificationError
from repro.static import SMOKE_PRIMES, certify, certify_code, certify_registry
from repro.utils import pairs


class TestMDSVerdict:
    @pytest.mark.parametrize("name", available_codes())
    @pytest.mark.parametrize("p", [5, 7])
    def test_every_registered_code_is_mds(self, name, p):
        cert = certify(name, p)
        assert cert.mds.verdict
        assert cert.mds.equations_independent
        assert cert.mds.capacity_optimal
        assert cert.mds.double_failures_ok == cert.mds.double_failures_checked

    def test_static_verdict_agrees_with_dynamic_oracle(self):
        """The rank submatrix view must match ``can_recover`` per pair."""
        for name in EVALUATED_CODE_NAMES:
            code = get_code(name, 5)
            cert = certify_code(code)
            dynamic = all(
                code.can_recover(code.disk_cells(a) + code.disk_cells(b))
                for a, b in pairs(code.cols)
            )
            assert cert.mds.verdict == dynamic

    def test_broken_layout_fails_mds(self):
        """Dropping a chain member must flip the verdict, not crash."""

        class BrokenHV(HVCode):
            name = "BrokenHV"

            def _build_chains(self):
                chains = super()._build_chains()
                weak = chains[0]
                # Remove one member: that column pair is no longer
                # recoverable, so the code stops being MDS.
                chains[0] = type(weak)(
                    kind=weak.kind,
                    parity=weak.parity,
                    members=weak.members[:-1],
                )
                return chains

        cert = certify_code(BrokenHV(5))
        assert not cert.mds.verdict
        assert not cert.claims["mds"]
        assert "mds" in cert.failed_claims()


class TestHVClaims:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_paper_claims_hold(self, p):
        cert = certify("HV", p)
        assert cert.claims == {
            "mds": True,
            "chain_length_p_minus_2": True,
            "balanced_parity_load": True,
            "four_parallel_recovery_chains": True,
            "optimal_update_complexity": True,
        }

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_chain_length_is_p_minus_2(self, p):
        cert = certify("HV", p)
        assert cert.uniform_chain_length == p - 2
        for lengths in cert.chain_lengths_by_kind.values():
            assert set(lengths) == {p - 2}

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_parity_load_balanced_two_per_disk(self, p):
        cert = certify("HV", p)
        assert cert.parity_balanced
        assert set(cert.parity_load) == {2}

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_four_parallel_recovery_chains(self, p):
        cert = certify("HV", p)
        profile = cert.double_failure
        assert profile.fully_peelable
        assert profile.min_parallelism == 4
        assert profile.max_parallelism == 4

    def test_update_complexity_optimal(self):
        cert = certify("HV", 7)
        assert cert.update_complexity_min == 2
        assert cert.update_complexity_max == 2
        assert cert.update_complexity_mean == 2.0


class TestBaselineProfiles:
    def test_rdp_concentrates_parity(self):
        cert = certify("RDP", 5)
        assert not cert.parity_balanced
        assert cert.parity_load[-2:] == (4, 4)

    def test_hdp_has_two_chains(self):
        cert = certify("HDP", 7)
        assert cert.double_failure.min_parallelism == 2
        assert cert.double_failure.max_parallelism == 2

    def test_evenodd_is_not_fully_peelable(self):
        cert = certify("EVENODD", 5)
        assert cert.mds.verdict  # still MDS — via Gaussian decoding
        assert not cert.double_failure.fully_peelable
        assert cert.double_failure.max_stuck_cells > 0


class TestPlanCrossCheck:
    def test_wrong_plan_rounds_fail_certification(self, monkeypatch):
        # The certifier's own peel and the compiled recovery plans must
        # agree on Lc; a plan priced one round too long is caught.
        import dataclasses
        import importlib

        # The package's ``certify`` function shadows the module name.
        certify_module = importlib.import_module("repro.static.certify")
        real = certify_module.repair_cost

        def skewed(code, failed, planner="greedy"):
            cost = real(code, failed, planner)
            return dataclasses.replace(cost, rounds=cost.rounds + 1)

        monkeypatch.setattr(certify_module, "repair_cost", skewed)
        with pytest.raises(CertificationError, match="recovery-plan cross-check"):
            certify_code(HVCode(5))


class TestSerialization:
    def test_canonical_json_round_trips(self):
        cert = certify("HV", 5)
        payload = json.loads(cert.canonical_json())
        assert payload["code"] == "HV"
        assert payload["p"] == 5
        assert payload["claims"]["four_parallel_recovery_chains"] is True

    def test_hash_is_deterministic(self):
        first = certify("X-Code", 7)
        second = certify("X-Code", 7)
        assert first.certificate_hash == second.certificate_hash
        assert first.canonical_json() == second.canonical_json()

    def test_hash_differs_across_codes_and_primes(self):
        hashes = {
            certify(name, p).certificate_hash
            for name in ("HV", "RDP")
            for p in (5, 7)
        }
        assert len(hashes) == 4

    def test_key_format(self):
        assert certify("HV", 5).key == "HV@5"


class TestRegistryRuns:
    def test_smoke_set_covers_every_code(self):
        certs = certify_registry(primes=SMOKE_PRIMES)
        assert len(certs) == len(SMOKE_PRIMES) * len(available_codes())
        assert all(not c.failed_claims() for c in certs)

    def test_single_code_filter(self):
        certs = certify_registry(primes=(5,), code_names=("HV",))
        assert [c.code for c in certs] == ["HV"]
