"""Small shared helpers: primality, modular arithmetic, formatting.

The array codes in this package are all built over a prime modulus
``p``.  The paper writes ``<i>_p`` for ``i mod p`` and ``<i/j>_p`` for
the modular quotient (the ``u`` with ``<u * j>_p = <i>_p``); the helpers
here implement that notation directly so code reads like the paper.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .exceptions import InvalidParameterError, NotPrimeError

#: Anything the stochastic helpers accept as a randomness source: a
#: seed (or None for OS entropy) or an explicit, already-constructed
#: generator that a caller threads through several helpers so one seed
#: reproduces an entire scenario (workload + fault plan).
RandomState = Union[int, None, np.random.Generator]


def resolve_rng(state: RandomState) -> np.random.Generator:
    """Materialize a generator from a seed or pass one through.

    Every stochastic path in the package funnels its ``seed`` argument
    through this helper, so callers can hand the *same* generator
    instance to multiple generators (workloads, fault plans, scenario
    drivers) and get one reproducible stream.
    """
    if isinstance(state, np.random.Generator):
        return state
    return np.random.default_rng(state)

#: Primes commonly used in the paper's evaluation section.
EVALUATION_PRIMES = (5, 7, 11, 13, 17, 19, 23)


def is_prime(n: int) -> bool:
    """Return True if ``n`` is a prime number.

    Deterministic trial division — the moduli used by RAID-6 array
    codes are tiny (tens), so nothing faster is warranted.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_prime(p: int, minimum: int = 3) -> int:
    """Validate that ``p`` is a prime >= ``minimum`` and return it."""
    if not isinstance(p, int):
        raise InvalidParameterError(f"p must be an int, got {type(p).__name__}")
    if not is_prime(p):
        raise NotPrimeError(p)
    if p < minimum:
        raise InvalidParameterError(f"p must be at least {minimum}, got {p}")
    return p


def mod_inverse(a: int, p: int) -> int:
    """Multiplicative inverse of ``a`` modulo prime ``p``.

    Raises :class:`InvalidParameterError` when ``a ≡ 0 (mod p)``, which
    has no inverse.
    """
    a %= p
    if a == 0:
        raise InvalidParameterError(f"0 has no inverse modulo {p}")
    # Fermat: a^(p-2) mod p, fine for the tiny moduli used here.
    return pow(a, p - 2, p)


def mod_div(i: int, j: int, p: int) -> int:
    """The paper's ``<i/j>_p``: the ``u`` with ``<u * j>_p = <i>_p``."""
    return (i % p) * mod_inverse(j, p) % p


def pairs(n: int) -> list[tuple[int, int]]:
    """All unordered index pairs ``(a, b)`` with ``0 <= a < b < n``.

    Used by the exhaustive double-erasure tests and the double-failure
    recovery experiments, which enumerate every pair of failed disks.
    """
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def mean(values) -> float:
    """Arithmetic mean of a non-empty iterable of numbers."""
    vals = list(values)
    if not vals:
        raise InvalidParameterError("mean() of empty sequence")
    return sum(vals) / len(vals)
