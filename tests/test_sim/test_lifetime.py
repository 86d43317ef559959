"""Disk-lifetime distributions: means, draws, serialization."""

import math

import pytest

from repro.exceptions import InvalidSimConfigError
from repro.sim import ExponentialLifetime, WeibullLifetime
from repro.utils import resolve_rng


class TestExponential:
    def test_mean_is_mttf(self):
        assert ExponentialLifetime(mttf_hours=1234.0).mean_hours == 1234.0

    def test_draws_match_mean(self):
        rng = resolve_rng(0)
        model = ExponentialLifetime(mttf_hours=100.0)
        draws = [model.draw(rng) for _ in range(20_000)]
        assert sum(draws) / len(draws) == pytest.approx(100.0, rel=0.05)

    def test_draws_are_seed_deterministic(self):
        model = ExponentialLifetime(mttf_hours=50.0)
        a = [model.draw(resolve_rng(7)) for _ in range(1)]
        b = [model.draw(resolve_rng(7)) for _ in range(1)]
        assert a == b

    def test_rejects_nonpositive_mttf(self):
        with pytest.raises(InvalidSimConfigError):
            ExponentialLifetime(mttf_hours=0.0)


class TestWeibull:
    def test_mean_uses_gamma(self):
        model = WeibullLifetime(scale_hours=1000.0, shape=2.0)
        assert model.mean_hours == pytest.approx(1000.0 * math.gamma(1.5))

    def test_shape_one_is_exponential_mean(self):
        assert WeibullLifetime(scale_hours=500.0, shape=1.0).mean_hours == (
            pytest.approx(500.0)
        )

    def test_draws_match_mean(self):
        rng = resolve_rng(1)
        model = WeibullLifetime(scale_hours=100.0, shape=1.5)
        draws = [model.draw(rng) for _ in range(20_000)]
        assert sum(draws) / len(draws) == pytest.approx(
            model.mean_hours, rel=0.05
        )

    @pytest.mark.parametrize("kwargs", [
        {"scale_hours": -1.0}, {"shape": 0.0}, {"shape": -2.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(InvalidSimConfigError):
            WeibullLifetime(**kwargs)
