"""Reed-Solomon P+Q RAID-6 over ``GF(2^8)``.

The algebraic ancestor of every code in this package (paper Section
II.B).  Unlike the XOR array codes it needs finite-field
multiplication, so it does not fit the parity-chain framework; it
implements the same encode / erase / decode surface over a stripe
whose grid is one row of ``k`` data disks plus the P and Q disks:

- ``P = D_0 ⊕ D_1 ⊕ ... ⊕ D_{k-1}``
- ``Q = g^0·D_0 ⊕ g^1·D_1 ⊕ ... ⊕ g^{k-1}·D_{k-1}``

Any two concurrent disk failures are repaired by the standard case
analysis (P+Q lost, one data + P, one data + Q, two data).  Included
to quantify what the XOR codes buy: the update complexity is optimal
(2) but every operation pays GF multiplications instead of XORs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..array.stripe import ERASED, Stripe
from ..exceptions import InvalidParameterError, UnrecoverableFailureError
from ..gf.gf256 import gf256
from ..utils import RandomState


class ReedSolomonRAID6:
    """P+Q Reed-Solomon RAID-6 with ``k`` data disks.

    The stripe layout is a single row: columns ``0 .. k-1`` hold data,
    column ``k`` holds P, column ``k+1`` holds Q.
    """

    name = "RS"

    def __init__(self, k: int) -> None:
        if not 2 <= k <= 255:
            raise InvalidParameterError(f"k must be in 2..255, got {k}")
        self.k = k
        self.field = gf256

    @property
    def rows(self) -> int:
        return 1

    @property
    def cols(self) -> int:
        return self.k + 2

    @property
    def num_disks(self) -> int:
        return self.cols

    @property
    def p_disk(self) -> int:
        return self.k

    @property
    def q_disk(self) -> int:
        return self.k + 1

    # -- stripe helpers -----------------------------------------------------------

    def make_stripe(self, element_size: int = 16) -> Stripe:
        return Stripe(1, self.cols, element_size)

    def random_stripe(self, element_size: int = 16, seed: "RandomState" = None) -> Stripe:
        stripe = self.make_stripe(element_size)
        stripe.fill_random([(0, d) for d in range(self.k)], seed=seed)
        self.encode(stripe)
        return stripe

    # -- encode / verify -----------------------------------------------------------

    def encode(self, stripe: Stripe, *, engine: str = "python") -> None:
        """Compute P and Q from the data columns.

        ``engine`` is accepted for interface parity with the XOR array
        codes; the GF(2^8) multiply below is already numpy-vectorized
        and has no flat XOR schedule, so both values run the same path.
        """
        self._check_stripe(stripe)
        p = np.zeros(stripe.element_size, dtype=np.uint8)
        q = np.zeros(stripe.element_size, dtype=np.uint8)
        for d in range(self.k):
            buf = stripe.get((0, d))
            np.bitwise_xor(p, buf, out=p)
            self.field.mul_add_bytes(q, self.field.generator_power(d), buf)
        stripe.set((0, self.p_disk), p)
        stripe.set((0, self.q_disk), q)

    def verify(self, stripe: Stripe) -> bool:
        self._check_stripe(stripe)
        if ERASED in stripe.state:
            return False
        expect = stripe.copy()
        self.encode(expect)
        return bool(
            np.array_equal(expect.get((0, self.p_disk)), stripe.get((0, self.p_disk)))
            and np.array_equal(
                expect.get((0, self.q_disk)), stripe.get((0, self.q_disk))
            )
        )

    def _check_stripe(self, stripe: Stripe) -> None:
        if stripe.rows != 1 or stripe.cols != self.cols:
            raise InvalidParameterError(
                f"stripe is {stripe.rows}x{stripe.cols}, RS(k={self.k}) "
                f"needs 1x{self.cols}"
            )

    # -- decode -----------------------------------------------------------------

    def decode(
        self,
        stripe: Stripe,
        failed_disks: Sequence[int] | None = None,
        *,
        engine: str = "python",
    ) -> None:
        """Recover up to two erased columns in place.

        ``engine`` is accepted for interface parity; see :meth:`encode`.
        """
        self._check_stripe(stripe)
        if failed_disks is not None:
            stripe.erase_disks(failed_disks)
        failed = sorted({c for _, c in stripe.erased_positions()})
        if not failed:
            return
        if len(failed) > 2:
            raise UnrecoverableFailureError(
                f"RS RAID-6 cannot repair {len(failed)} failed disks"
            )
        if len(failed) == 1:
            self._decode_single(stripe, failed[0])
        else:
            self._decode_double(stripe, failed[0], failed[1])

    def _xor_data(self, stripe: Stripe, skip: set[int]) -> np.ndarray:
        acc = np.zeros(stripe.element_size, dtype=np.uint8)
        for d in range(self.k):
            if d not in skip:
                np.bitwise_xor(acc, stripe.get((0, d)), out=acc)
        return acc

    def _q_partial(self, stripe: Stripe, skip: set[int]) -> np.ndarray:
        acc = np.zeros(stripe.element_size, dtype=np.uint8)
        for d in range(self.k):
            if d not in skip:
                self.field.mul_add_bytes(
                    acc, self.field.generator_power(d), stripe.get((0, d))
                )
        return acc

    def _decode_single(self, stripe: Stripe, x: int) -> None:
        if x == self.p_disk:
            stripe.set((0, x), self._xor_data(stripe, set()))
        elif x == self.q_disk:
            stripe.set((0, x), self._q_partial(stripe, set()))
        else:
            # Data disk: XOR of P and the surviving data.
            buf = self._xor_data(stripe, {x})
            np.bitwise_xor(buf, stripe.get((0, self.p_disk)), out=buf)
            stripe.set((0, x), buf)

    def _decode_double(self, stripe: Stripe, x: int, y: int) -> None:
        p_disk, q_disk = self.p_disk, self.q_disk
        if {x, y} == {p_disk, q_disk}:
            self.encode(stripe)
            return
        if y == q_disk:  # one data disk + Q: restore data via P, recompute Q
            self._decode_single(stripe, x)
            stripe.set((0, q_disk), self._q_partial(stripe, set()))
            return
        if y == p_disk:  # one data disk + P: restore data via Q, recompute P
            partial = self._q_partial(stripe, {x})
            np.bitwise_xor(partial, stripe.get((0, q_disk)), out=partial)
            g_inv = self.field.inverse(self.field.generator_power(x))
            stripe.set((0, x), self.field.mul_bytes(g_inv, partial))
            stripe.set((0, p_disk), self._xor_data(stripe, set()))
            return
        # Two data disks x < y: solve the 2x2 system
        #   Dx ⊕ Dy           = P'   (P minus surviving data)
        #   g^x·Dx ⊕ g^y·Dy   = Q'   (Q minus surviving data)
        p_prime = self._xor_data(stripe, {x, y})
        np.bitwise_xor(p_prime, stripe.get((0, p_disk)), out=p_prime)
        q_prime = self._q_partial(stripe, {x, y})
        np.bitwise_xor(q_prime, stripe.get((0, q_disk)), out=q_prime)
        gx = self.field.generator_power(x)
        gy = self.field.generator_power(y)
        denom = self.field.add(gx, gy)
        # Dx = (g^y·P' ⊕ Q') / (g^x ⊕ g^y)
        num = self.field.mul_bytes(gy, p_prime)
        np.bitwise_xor(num, q_prime, out=num)
        dx = self.field.mul_bytes(self.field.inverse(denom), num)
        dy = p_prime
        np.bitwise_xor(dy, dx, out=dy)
        stripe.set((0, x), dx)
        stripe.set((0, y), dy)

    def __repr__(self) -> str:
        return f"ReedSolomonRAID6(k={self.k})"
