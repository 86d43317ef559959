"""Generic ``GF(2^w)`` finite-field arithmetic with table lookups.

The field is represented by a primitive polynomial; elements are the
integers ``0 .. 2^w - 1`` under carry-less (XOR) polynomial arithmetic
modulo that polynomial.  Multiplication and division go through
log/antilog tables, as in every practical erasure-coding library
(Jerasure, ISA-L).
"""

from __future__ import annotations

from ..exceptions import GFDomainError, InvalidParameterError

#: Default primitive polynomials, indexed by word size w.  Encoded with
#: the leading x^w term included, e.g. GF(2^8) uses x^8+x^4+x^3+x^2+1 =
#: 0x11D (the Rijndael-compatible erasure-coding standard choice).
PRIMITIVE_POLYNOMIALS = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


class GF2w:
    """The finite field ``GF(2^w)``.

    Parameters
    ----------
    w:
        Word size in bits (2..16).
    primitive_polynomial:
        Optional override of the field's primitive polynomial.  The
        constructor verifies primitivity by checking that ``x`` (the
        element ``2``) generates the full multiplicative group.
    """

    def __init__(self, w: int, primitive_polynomial: int | None = None) -> None:
        if w not in PRIMITIVE_POLYNOMIALS:
            raise InvalidParameterError(f"w must be in 2..16, got {w}")
        self.w = w
        self.size = 1 << w
        self.poly = primitive_polynomial or PRIMITIVE_POLYNOMIALS[w]
        self._log = [0] * self.size
        self._exp = [0] * (2 * self.size)
        self._build_tables()

    def _build_tables(self) -> None:
        """Fill log/antilog tables by repeated multiplication by x."""
        x = 1
        for i in range(self.size - 1):
            self._exp[i] = x
            self._log[x] = i
            x <<= 1
            if x & self.size:
                x ^= self.poly
        if x != 1:
            raise InvalidParameterError(
                f"polynomial {self.poly:#x} is not primitive for GF(2^{self.w})"
            )
        # Duplicate the antilog table so exp lookups never need a mod.
        for i in range(self.size - 1, 2 * self.size):
            self._exp[i] = self._exp[i - (self.size - 1)]

    # -- element arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition (= subtraction): XOR."""
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises on division by zero."""
        if b == 0:
            raise GFDomainError("division by zero in GF(2^w)")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + (self.size - 1)]

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a non-zero element."""
        if a == 0:
            raise GFDomainError("0 has no inverse in GF(2^w)")
        return self._exp[(self.size - 1) - self._log[a]]

    def pow(self, a: int, n: int) -> int:
        """``a`` raised to the integer power ``n`` (n may be negative)."""
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise GFDomainError("0 to a negative power in GF(2^w)")
            return 0
        e = (self._log[a] * n) % (self.size - 1)
        return self._exp[e]

    def exp(self, i: int) -> int:
        """The generator ``x`` raised to the power ``i``."""
        return self._exp[i % (self.size - 1)]

    def elements(self):
        """Iterate over every field element, 0 first."""
        return range(self.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GF2w(w={self.w}, poly={self.poly:#x})"
