"""Field-axiom and table-consistency tests for GF(2^w)."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.gf.gfw import GF2w, PRIMITIVE_POLYNOMIALS


@pytest.fixture(scope="module")
def gf16():
    return GF2w(4)


@pytest.fixture(scope="module")
def gf256():
    return GF2w(8)


class TestConstruction:
    def test_all_default_polynomials_are_primitive(self):
        # Building the tables verifies primitivity; every default must pass.
        for w in PRIMITIVE_POLYNOMIALS:
            GF2w(w)

    def test_rejects_bad_word_size(self):
        with pytest.raises(InvalidParameterError):
            GF2w(1)
        with pytest.raises(InvalidParameterError):
            GF2w(17)

    def test_rejects_non_primitive_polynomial(self):
        # x^4 + 1 is not primitive over GF(2).
        with pytest.raises(InvalidParameterError):
            GF2w(4, primitive_polynomial=0x11)


class TestFieldAxioms:
    def test_addition_is_xor(self, gf16):
        assert gf16.add(0b1010, 0b0110) == 0b1100
        assert gf16.sub(0b1010, 0b0110) == 0b1100

    def test_multiplicative_identity(self, gf16):
        for a in gf16.elements():
            assert gf16.mul(a, 1) == a

    def test_zero_annihilates(self, gf16):
        for a in gf16.elements():
            assert gf16.mul(a, 0) == 0

    def test_commutativity(self, gf16):
        for a in gf16.elements():
            for b in gf16.elements():
                assert gf16.mul(a, b) == gf16.mul(b, a)

    def test_associativity_sampled(self, gf256):
        for a in (1, 2, 3, 87, 255):
            for b in (1, 5, 130):
                for c in (7, 200):
                    left = gf256.mul(gf256.mul(a, b), c)
                    right = gf256.mul(a, gf256.mul(b, c))
                    assert left == right

    def test_distributivity_exhaustive_gf16(self, gf16):
        for a in gf16.elements():
            for b in gf16.elements():
                for c in (1, 7, 11):
                    left = gf16.mul(a, gf16.add(b, c))
                    right = gf16.add(gf16.mul(a, b), gf16.mul(a, c))
                    assert left == right

    def test_inverse_roundtrip(self, gf256):
        for a in range(1, 256):
            assert gf256.mul(a, gf256.inverse(a)) == 1

    def test_division_definition(self, gf16):
        for a in gf16.elements():
            for b in range(1, gf16.size):
                assert gf16.mul(gf16.div(a, b), b) == a


class TestErrors:
    def test_divide_by_zero(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.div(3, 0)

    def test_inverse_of_zero(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.inverse(0)

    def test_zero_to_negative_power(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.pow(0, -1)


class TestPowLog:
    def test_pow_matches_repeated_mul(self, gf16):
        for a in range(1, gf16.size):
            acc = 1
            for n in range(8):
                assert gf16.pow(a, n) == acc
                acc = gf16.mul(acc, a)

    def test_pow_negative(self, gf256):
        for a in (1, 2, 77, 255):
            assert gf256.mul(gf256.pow(a, -1), a) == 1

    def test_pow_zero_cases(self, gf16):
        assert gf16.pow(0, 0) == 1
        assert gf16.pow(0, 5) == 0

    def test_generator_order(self, gf256):
        # The generator cycles with period 2^w - 1.
        assert gf256.exp(0) == 1
        assert gf256.exp(255) == 1
        seen = {gf256.exp(i) for i in range(255)}
        assert len(seen) == 255
