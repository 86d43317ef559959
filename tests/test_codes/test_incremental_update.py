"""Tests for the small-write path (delta-parity element updates)."""

import numpy as np
import pytest

from repro import HVCode
from repro.exceptions import LayoutError


class TestUpdateElement:
    def test_equals_full_reencode(self, code):
        stripe = code.random_stripe(element_size=8, seed=51)
        rng = np.random.default_rng(52)
        for pos in code.data_positions[:: max(1, len(code.data_positions) // 6)]:
            new = rng.integers(0, 256, 8, dtype=np.uint8)
            expected = stripe.copy()
            expected.set(pos, new)
            code.encode(expected)
            rewritten = code.update_elements(stripe, {pos: new})
            assert stripe == expected
            assert rewritten <= code.update_targets(pos)

    def test_rewrites_exactly_update_targets(self, code):
        # With a random delta, accidental cancellation is (2^-64)-rare:
        # the rewritten set equals the dependency closure.
        stripe = code.random_stripe(element_size=8, seed=53)
        pos = code.data_positions[0]
        new = np.frombuffer(b"\xa5" * 8, dtype=np.uint8)
        rewritten = code.update_elements(stripe, {pos: new})
        assert rewritten == code.update_targets(pos)

    def test_noop_update_touches_nothing(self, code):
        stripe = code.random_stripe(element_size=8, seed=54)
        pos = code.data_positions[1]
        rewritten = code.update_elements(stripe, {pos: stripe.get(pos).copy()})
        assert rewritten == frozenset()

    def test_stripe_still_verifies(self, code):
        stripe = code.random_stripe(element_size=8, seed=55)
        rng = np.random.default_rng(56)
        for pos in code.data_positions[:5]:
            code.update_elements(stripe, {pos: rng.integers(0, 256, 8, dtype=np.uint8)})
        assert code.verify(stripe)

    def test_parity_cell_rejected(self):
        code = HVCode(7)
        stripe = code.random_stripe(element_size=4, seed=57)
        with pytest.raises(LayoutError):
            code.update_elements(
                stripe, {code.parity_positions[0]: np.zeros(4, dtype=np.uint8)}
            )

    def test_sequential_updates_compose(self, code):
        stripe = code.random_stripe(element_size=4, seed=58)
        reference = stripe.copy()
        rng = np.random.default_rng(59)
        cells = code.data_positions[:4]
        bufs = [rng.integers(0, 256, 4, dtype=np.uint8) for _ in cells]
        for pos, buf in zip(cells, bufs):
            code.update_elements(stripe, {pos: buf})
        for pos, buf in zip(cells, bufs):
            reference.set(pos, buf)
        code.encode(reference)
        assert stripe == reference
