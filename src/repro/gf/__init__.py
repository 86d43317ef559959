"""Galois-field arithmetic substrate.

:mod:`repro.gf.gfw` — a generic ``GF(2^w)`` field with log/antilog
tables for w up to 16, the field :class:`~repro.codes.cauchy.CauchyRSCode`
expands into XOR parity chains (every code here is an XOR code, so no
byte-wise field kernel is needed).
"""

from .gfw import GF2w

__all__ = ["GF2w"]
