"""EVENODD code over ``p + 2`` disks (Blaum et al., 1995).

The first XOR-only RAID-6 code.  A stripe is ``(p-1)`` rows by
``(p+2)`` columns: ``p`` data columns, one row-parity column (``p``),
one diagonal-parity column (``p+1``).  The diagonal parities share the
*adjuster* ``S`` — the XOR of the special diagonal ``p-1`` — so each
diagonal parity's XOR equation covers its own diagonal *plus* the S
diagonal.  Expressed as parity chains this stays a pure XOR system;
chain peeling alone often cannot make progress on it (every diagonal
equation couples through S), which exercises the Gaussian fallback of
the generic decoder.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..array.stripe import Stripe
from .base import ArrayCode, DecodeReport, ElementKind, ParityChain


class EvenOddCode(ArrayCode):
    """EVENODD, included as an extension baseline (paper Section II)."""

    name = "EVENODD"
    min_p = 3

    @cached_property
    def rows(self) -> int:
        return self.p - 1

    @cached_property
    def cols(self) -> int:
        return self.p + 2

    def _s_diagonal(self) -> tuple[tuple[int, int], ...]:
        """Data cells of the adjuster diagonal ``a + b ≡ p-1 (mod p)``."""
        p = self.p
        return tuple(
            ((p - 1 - b) % p, b)
            for b in range(p)
            if (p - 1 - b) % p != p - 1
        )

    def _build_chains(self) -> list[ParityChain]:
        p = self.p
        chains: list[ParityChain] = []
        for r in range(p - 1):
            members = tuple((r, j) for j in range(p))
            chains.append(ParityChain(ElementKind.ROW, (r, p), members))
        s_diag = self._s_diagonal()
        for r in range(p - 1):
            diag = tuple(
                ((r - b) % p, b)
                for b in range(p)
                if (r - b) % p != p - 1
            )
            # E_{r,p+1} = S ⊕ diag_r; as an XOR-to-zero equation the
            # members are diag_r plus the S diagonal, with any cell on
            # both sides cancelling (XOR) — here they are disjoint for
            # r != p-1, and diagonal p-1 itself is never a chain.
            members = tuple(dict.fromkeys(diag + s_diag))
            chains.append(ParityChain(ElementKind.DIAGONAL, (r, p + 1), members))
        return chains

    # -- the classic structured decoder (Blaum et al., Section IV) ----------------------

    def _decode_python(self, stripe: Stripe) -> DecodeReport:
        """Decode, preferring the classic S-syndrome algorithm.

        Whole-column failures run the original EVENODD reconstruction
        (zig-zag between the two lost data columns after recovering
        the adjuster ``S`` from the parity columns); any other erasure
        pattern falls back to the generic peeling + Gaussian decoder.

        On a compiled engine :meth:`ArrayCode.decode` gets here only
        for the patterns peeling cannot finish — the ones whose zig-zag
        needs the adjuster have no flat XOR schedule.
        """
        erased = set(stripe.erased_positions())
        columns = {c for _, c in erased}
        whole_columns = all(
            (r, c) in erased for c in columns for r in range(self.rows)
        ) and len(erased) == len(columns) * self.rows
        if erased and whole_columns and len(columns) <= 2:
            return self._decode_columns(stripe, sorted(columns))
        return super()._decode_python(stripe)

    def _decode_columns(self, stripe: Stripe, failed: list[int]) -> DecodeReport:
        p = self.p
        data_failed = [c for c in failed if c < p]
        report = DecodeReport()
        if len(data_failed) == 2:
            self._two_data_disks(stripe, data_failed[0], data_failed[1], report)
        elif len(data_failed) == 1 and p in failed:
            self._data_disk_via_diagonals(stripe, data_failed[0], report)
            self._rebuild_row_parity(stripe, report)
        elif len(data_failed) == 1:
            self._data_disk_via_rows(stripe, data_failed[0], report)
            if p + 1 in failed:
                self._rebuild_diagonal_parity(stripe, report)
        else:
            # Only parity columns lost: re-encode from intact data.
            for chain in self.encode_order:
                if chain.parity[1] in failed:
                    stripe.set(chain.parity, stripe.xor_of(chain.members))
                    report.peeled.append(chain.parity)
            report.rounds = 1 if report.peeled else 0
        return report

    def _syndromes(self, stripe: Stripe, skip: set[int]):
        """Row/diagonal XOR of surviving cells, parity included."""
        p = self.p
        size = stripe.element_size
        s0 = [np.zeros(size, dtype=np.uint8) for _ in range(p - 1)]
        s1 = [np.zeros(size, dtype=np.uint8) for _ in range(p)]
        for r in range(p - 1):
            for c in range(p):
                if c in skip:
                    continue
                buf = stripe.get((r, c))
                np.bitwise_xor(s0[r], buf, out=s0[r])
                np.bitwise_xor(s1[(r + c) % p], buf, out=s1[(r + c) % p])
            if p not in skip:
                np.bitwise_xor(s0[r], stripe.get((r, p)), out=s0[r])
        return s0, s1

    def _adjuster_from_parity(self, stripe: Stripe) -> np.ndarray:
        """S = XOR of both parity columns (rows ⊕ diagonals)."""
        cells = [(r, self.p) for r in range(self.rows)]
        cells += [(r, self.p + 1) for r in range(self.rows)]
        return stripe.xor_of(cells)

    def _two_data_disks(
        self, stripe: Stripe, f1: int, f2: int, report: DecodeReport
    ) -> None:
        p = self.p
        s = self._adjuster_from_parity(stripe)
        s0, s1 = self._syndromes(stripe, skip={f1, f2})
        # Fold S and the diagonal parity into the diagonal syndromes:
        # after this, s1[d] is the XOR of the *lost* cells of diagonal d.
        # The adjuster diagonal p-1 has no parity cell — its total XOR
        # *is* S, so folding S alone leaves its lost-cell XOR.
        for d in range(p - 1):
            np.bitwise_xor(s1[d], stripe.get((d, p + 1)), out=s1[d])
            np.bitwise_xor(s1[d], s, out=s1[d])
        np.bitwise_xor(s1[p - 1], s, out=s1[p - 1])
        # Zig-zag: diagonal (f1 - 1) misses column f1, so its lost cell
        # in f2 is immediately known; the row then yields f1's cell,
        # whose diagonal exposes the next f2 cell, until the walk hits
        # the virtual row p-1.
        r = (f1 - 1 - f2) % p
        while r != p - 1:
            d = (r + f2) % p
            stripe.set((r, f2), s1[d])
            np.bitwise_xor(s0[r], s1[d], out=s0[r])
            stripe.set((r, f1), s0[r])
            d_next = (r + f1) % p
            np.bitwise_xor(s1[d_next], s0[r], out=s1[d_next])
            report.peeled.extend([(r, f2), (r, f1)])
            report.rounds += 1
            r = (r + f1 - f2) % p

    def _data_disk_via_diagonals(
        self, stripe: Stripe, f: int, report: DecodeReport
    ) -> None:
        """Recover a data column using diagonals (row parity lost)."""
        p = self.p
        _, s1 = self._syndromes(stripe, skip={f, p})
        # Diagonal (f - 1) misses column f entirely: it reveals S.  For
        # f = 0 that diagonal is the adjuster diagonal itself, whose
        # surviving XOR *is* S (it has no parity cell).
        d0 = (f - 1) % p
        if d0 == p - 1:
            s = s1[p - 1].copy()
        else:
            s = s1[d0].copy()
            np.bitwise_xor(s, stripe.get((d0, p + 1)), out=s)
        for r in range(p - 1):
            d = (r + f) % p
            if d == p - 1:
                # The cell sits on the adjuster diagonal itself:
                # S = XOR of that diagonal, so the lost cell is S
                # against the diagonal's survivors.
                val = s1[p - 1].copy()
                np.bitwise_xor(val, s, out=val)
            else:
                val = s1[d].copy()
                np.bitwise_xor(val, stripe.get((d, p + 1)), out=val)
                np.bitwise_xor(val, s, out=val)
            stripe.set((r, f), val)
            report.peeled.append((r, f))
        report.rounds += 1

    def _data_disk_via_rows(
        self, stripe: Stripe, f: int, report: DecodeReport
    ) -> None:
        p = self.p
        s0, _ = self._syndromes(stripe, skip={f, p + 1})
        for r in range(p - 1):
            stripe.set((r, f), s0[r])
            report.peeled.append((r, f))
        report.rounds += 1

    def _rebuild_row_parity(self, stripe: Stripe, report: DecodeReport) -> None:
        for r in range(self.rows):
            stripe.set((r, self.p), stripe.xor_of([(r, j) for j in range(self.p)]))
            report.peeled.append((r, self.p))
        report.rounds += 1

    def _rebuild_diagonal_parity(self, stripe: Stripe, report: DecodeReport) -> None:
        s = stripe.xor_of(self._s_diagonal())
        p = self.p
        for r in range(p - 1):
            diag = [
                ((r - b) % p, b) for b in range(p) if (r - b) % p != p - 1
            ]
            val = stripe.xor_of(diag)
            np.bitwise_xor(val, s, out=val)
            stripe.set((r, p + 1), val)
            report.peeled.append((r, p + 1))
        report.rounds += 1
