"""SimConfig validation, canonicalization, and the Markov bridge."""

import pytest

from repro.exceptions import InvalidSimConfigError, SimulationError
from repro.sim import ExponentialLifetime, SimConfig, WeibullLifetime


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"fleet_size": 0},
        {"fleet_size": -3},
        {"horizon_hours": 0.0},
        {"disk_capacity_elements": 0},
        {"latent_error_rate_per_hour": -1e-6},
        {"scrub_interval_hours": 0.0},
        {"spares": -1},
        {"spare_replenish_hours": 0.0},
        {"repair_streams": 0},
        {"code_name": "NoSuchCode"},
        {"p": 4},
        {"lifetime": "exponential"},
    ], ids=repr)
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(InvalidSimConfigError):
            SimConfig(**{"code_name": "HV", "p": 5, **kwargs})

    def test_error_is_both_simulation_and_value_error(self):
        assert issubclass(InvalidSimConfigError, SimulationError)
        assert issubclass(InvalidSimConfigError, ValueError)

    def test_none_disables_optional_limits(self):
        cfg = SimConfig(
            p=5, scrub_interval_hours=None, spares=None, repair_streams=None
        )
        assert cfg.scrub_interval_hours is None
        assert cfg.spares is None


class TestCanonicalization:
    def test_alias_pins_canonical_name(self):
        # get_code accepts lowercase aliases; the config must store the
        # canonical spelling so report hashes never depend on typing.
        assert SimConfig(code_name="rdp", p=5).code_name == "RDP"
        assert SimConfig(code_name="hv", p=5).code_name == "HV"

    def test_alias_and_canonical_render_identically(self):
        assert SimConfig(code_name="hv", p=5).to_dict() == (
            SimConfig(code_name="HV", p=5).to_dict()
        )


class TestBridge:
    def test_make_code_matches_name(self):
        assert SimConfig(code_name="X-Code", p=5).make_code().name == "X-Code"

    def test_reliability_parameters_use_lifetime_mean(self):
        lifetime = WeibullLifetime(scale_hours=2000.0, shape=1.3)
        cfg = SimConfig(p=5, lifetime=lifetime, disk_capacity_elements=123)
        params = cfg.reliability_parameters()
        assert params.disk_mttf_hours == lifetime.mean_hours
        assert params.disk_capacity_elements == 123

    def test_to_dict_round_trips_lifetime(self):
        cfg = SimConfig(p=5, lifetime=ExponentialLifetime(mttf_hours=999.0))
        rendered = cfg.to_dict()
        assert rendered["lifetime"] == {
            "kind": "exponential",
            "mttf_hours": 999.0,
        }
        assert rendered["code_name"] == "HV"
