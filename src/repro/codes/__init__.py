"""Array codes: the shared framework and the paper's baseline codes.

- :mod:`repro.codes.base` — the parity-chain framework every XOR code
  plugs into (layout, encoding order, generic decode, update sets).
- :mod:`repro.codes.rdp`, :mod:`repro.codes.xcode`,
  :mod:`repro.codes.hdp`, :mod:`repro.codes.hcode` — the four baselines
  the paper evaluates against.
- :mod:`repro.codes.evenodd`, :mod:`repro.codes.pcode`,
  :mod:`repro.codes.liberation`, :mod:`repro.codes.cauchy` — extension
  baselines discussed in the paper's background section, all XOR
  parity-chain codes like the four above.

HV Code itself lives in :mod:`repro.core` since it is the paper's
contribution.
"""

from .base import ArrayCode, ElementKind, ParityChain, Position

__all__ = ["ArrayCode", "ElementKind", "ParityChain", "Position"]
