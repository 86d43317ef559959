"""Tests for repro.utils: primality and the paper's modular notation."""

import pytest

from repro.exceptions import InvalidParameterError, NotPrimeError
from repro.utils import (
    EVALUATION_PRIMES,
    is_prime,
    mean,
    mod_div,
    mod_inverse,
    pairs,
    require_prime,
)


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            assert is_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 6, 8, 9, 15, 21, 25, 49):
            assert not is_prime(n)

    def test_negative(self):
        assert not is_prime(-7)

    def test_evaluation_primes_are_prime(self):
        assert all(is_prime(p) for p in EVALUATION_PRIMES)


class TestRequirePrime:
    def test_passes_through(self):
        assert require_prime(13) == 13

    def test_rejects_composite(self):
        with pytest.raises(NotPrimeError):
            require_prime(9)

    def test_rejects_below_minimum(self):
        with pytest.raises(InvalidParameterError):
            require_prime(3, minimum=5)

    def test_rejects_non_int(self):
        with pytest.raises(InvalidParameterError):
            require_prime(7.0)  # type: ignore[arg-type]

    def test_not_prime_error_carries_value(self):
        with pytest.raises(NotPrimeError) as err:
            require_prime(12)
        assert err.value.p == 12


class TestModularArithmetic:
    def test_mod_inverse_roundtrip(self):
        for p in (5, 7, 13):
            for a in range(1, p):
                assert (a * mod_inverse(a, p)) % p == 1

    def test_mod_inverse_of_zero_fails(self):
        with pytest.raises(InvalidParameterError):
            mod_inverse(0, 7)
        with pytest.raises(InvalidParameterError):
            mod_inverse(14, 7)

    def test_mod_div_definition(self):
        # <i/j>_p is the u with <u*j>_p = <i>_p (Table I of the paper).
        for p in (5, 7, 13):
            for i in range(p):
                for j in range(1, p):
                    u = mod_div(i, j, p)
                    assert (u * j) % p == i % p

    def test_mod_div_paper_example(self):
        # Encoding E_{1,4} in Fig. 4(b): j=2 gives k = <(2-4)/2>_7 = 6.
        assert mod_div(2 - 4, 2, 7) == 6


class TestHelpers:
    def test_pairs_count(self):
        assert len(pairs(6)) == 15
        assert pairs(2) == [(0, 1)]

    def test_pairs_ordering(self):
        assert all(a < b for a, b in pairs(10))

    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_mean_empty_fails(self):
        with pytest.raises(InvalidParameterError):
            mean([])
