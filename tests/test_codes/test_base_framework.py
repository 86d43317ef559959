"""Tests of the shared parity-chain framework, run over every code.

These are the structural invariants the whole package rests on; the
fixtures in conftest parametrize them across all seven XOR codes.
"""

import numpy as np
import pytest

from repro import HVCode
from repro.codes.base import ArrayCode, ElementKind, ParityChain
from repro.exceptions import (
    InvalidParameterError,
    LayoutError,
    NotPrimeError,
    UnrecoverableFailureError,
)


class TestLayoutInvariants:
    def test_every_cell_has_a_kind(self, code):
        assert len(code.layout) == code.rows * code.cols

    def test_parity_cells_match_chains(self, code):
        parity_cells = {pos for pos, k in code.layout.items() if k.is_parity}
        assert parity_cells == set(code.chain_at)

    def test_data_plus_parity_partition(self, code):
        assert (
            len(code.data_positions) + len(code.parity_positions)
            == code.rows * code.cols
        )

    def test_data_positions_row_major(self, code):
        assert list(code.data_positions) == sorted(code.data_positions)

    def test_mds_capacity(self, code):
        # Every code here is MDS: parity equals exactly two disks' worth.
        assert code.is_mds_capacity()
        assert code.storage_efficiency == pytest.approx(
            (code.cols - 2) / code.cols
        )

    def test_chain_members_are_valid_cells(self, code):
        for chain in code.chains:
            for r, c in chain.equation_cells:
                assert 0 <= r < code.rows
                assert 0 <= c < code.cols

    def test_each_data_cell_in_at_least_two_chains(self, code):
        # Tolerating two failures needs two independent equations per
        # data element — except RDP, whose "missing diagonal" cells sit
        # in the row chain only (double failures there decode through
        # neighbouring diagonals instead).
        p = code.p
        for pos in code.data_positions:
            if code.name == "RDP" and (pos[0] + pos[1]) % p == p - 1:
                assert len(code.chains_through[pos]) == 1
                continue
            assert len(code.chains_through[pos]) >= 2

    def test_chain_touches_each_disk_boundedly(self, code):
        # Geometric array-code chains visit a column at most once;
        # EVENODD's S-coupled diagonals revisit once, and bit-matrix
        # codes (Liberation, Cauchy RS) may touch up to a full column
        # of packets.
        limits = {"EVENODD": 2, "Liberation": 2, "Cauchy-RS": code.rows}
        limit = limits.get(code.name, 1)
        for chain in code.chains:
            cols = [c for _, c in chain.equation_cells]
            counts = {c: cols.count(c) for c in cols}
            assert max(counts.values()) <= limit, (code.name, chain.parity)


class TestEncoding:
    def test_encode_then_verify(self, code):
        stripe = code.random_stripe(element_size=4, seed=11)
        assert code.verify(stripe)

    def test_verify_detects_corruption(self, code):
        stripe = code.random_stripe(element_size=4, seed=11)
        pos = code.data_positions[0]
        buf = stripe.get(pos).copy()
        buf[0] ^= 0xFF
        stripe.set(pos, buf)
        assert not code.verify(stripe)

    def test_verify_false_with_erasures(self, code):
        stripe = code.random_stripe(element_size=4, seed=11)
        stripe.erase(code.data_positions[0])
        assert not code.verify(stripe)

    def test_encode_deterministic(self, code):
        a = code.random_stripe(element_size=4, seed=3)
        b = code.random_stripe(element_size=4, seed=3)
        assert a == b

    def test_encode_order_respects_dependencies(self, code):
        seen = set()
        parity_cells = set(code.chain_at)
        for chain in code.encode_order:
            for member in chain.members:
                if member in parity_cells:
                    assert member in seen, (
                        f"{code.name}: chain at {chain.parity} encoded "
                        f"before its dependency {member}"
                    )
            seen.add(chain.parity)

    def test_wrong_stripe_shape_rejected(self, code):
        from repro.array.stripe import Stripe

        wrong = Stripe(code.rows + 1, code.cols, 4)
        with pytest.raises(LayoutError):
            code.encode(wrong)


class TestDecoding:
    def test_single_element_failures(self, code):
        stripe = code.random_stripe(element_size=4, seed=7)
        for pos in list(code.layout)[:: max(1, code.rows)]:
            broken = stripe.copy()
            broken.erase(pos)
            code.decode(broken)
            assert broken == stripe

    def test_single_disk_failures(self, code):
        stripe = code.random_stripe(element_size=4, seed=7)
        for disk in range(code.cols):
            broken = stripe.copy()
            report = code.decode(broken, failed_disks=[disk])
            assert broken == stripe
            assert report.recovered == code.rows

    def test_three_disk_failure_rejected(self, code):
        stripe = code.random_stripe(element_size=4, seed=7)
        stripe.erase_disks([0, 1, 2])
        with pytest.raises(UnrecoverableFailureError):
            code.decode(stripe)

    def test_decode_noop_when_healthy(self, code):
        stripe = code.random_stripe(element_size=4, seed=7)
        report = code.decode(stripe)
        assert report.recovered == 0

    def test_scattered_element_failures(self, code):
        # Any two elements (not whole disks) are always recoverable.
        stripe = code.random_stripe(element_size=4, seed=9)
        cells = list(code.layout)
        for a, b in zip(cells[::5], cells[1::5]):
            broken = stripe.copy()
            broken.erase(a)
            broken.erase(b)
            code.decode(broken)
            assert broken == stripe


class TestUpdateModel:
    def test_update_targets_are_parities(self, code):
        for pos in code.data_positions[:6]:
            for parity in code.update_targets(pos):
                assert code.layout[parity].is_parity

    def test_update_complexity_at_least_two(self, code):
        for pos in code.data_positions:
            assert code.update_complexity(pos) >= 2

    def test_update_targets_match_reencode(self, code):
        # The dependency closure must equal the set of parities whose
        # bytes actually change when one data element changes.
        stripe = code.random_stripe(element_size=4, seed=13)
        pos = code.data_positions[len(code.data_positions) // 2]
        changed = stripe.copy()
        buf = changed.get(pos).copy()
        buf[:] ^= 0x5A
        changed.set(pos, buf)
        code.encode(changed)
        actually_dirty = {
            parity
            for parity in code.parity_positions
            if not np.array_equal(stripe.get(parity), changed.get(parity))
        }
        assert actually_dirty == set(code.update_targets(pos))



class TestConstructionErrors:
    def test_non_prime_rejected(self):
        with pytest.raises(NotPrimeError):
            HVCode(9)

    def test_too_small_prime_rejected(self):
        with pytest.raises(InvalidParameterError):
            HVCode(3)

    def test_parity_chain_validation(self):
        with pytest.raises(LayoutError):
            ParityChain(ElementKind.DATA, (0, 0), ((0, 1),))
        with pytest.raises(LayoutError):
            ParityChain(ElementKind.HORIZONTAL, (0, 0), ((0, 0),))
        with pytest.raises(LayoutError):
            ParityChain(ElementKind.HORIZONTAL, (0, 0), ((0, 1), (0, 1)))


class TestReporting:
    def test_describe_layout_mentions_every_row(self, code):
        text = code.describe_layout()
        assert len(text.splitlines()) == code.rows + 1

    def test_repr(self, code):
        if code.name == "Cauchy-RS":
            assert f"k={code.k}" in repr(code)
        else:
            assert f"p={code.p}" in repr(code)
