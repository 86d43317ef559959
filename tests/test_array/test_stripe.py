"""Tests for the stripe container."""

import numpy as np
import pytest

from repro.array.stripe import ERASED, HEALTHY, LATENT, Stripe, StripeBatch
from repro.exceptions import InvalidParameterError, SimulationError


class TestConstruction:
    def test_dimensions(self):
        s = Stripe(3, 4, 16)
        assert s.data.shape == (3, 4, 16)
        assert s.state.shape == (3, 4) and s.state.dtype == np.uint8
        assert not s.state.any()

    @pytest.mark.parametrize("rows,cols,size", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_rejects_bad_dimensions(self, rows, cols, size):
        with pytest.raises(InvalidParameterError):
            Stripe(rows, cols, size)


class TestAccess:
    def test_set_get_roundtrip(self):
        s = Stripe(2, 2, 4)
        buf = np.array([1, 2, 3, 4], dtype=np.uint8)
        s.set((1, 0), buf)
        assert np.array_equal(s.get((1, 0)), buf)

    def test_get_out_of_range(self):
        s = Stripe(2, 2, 4)
        with pytest.raises(InvalidParameterError):
            s.get((2, 0))
        with pytest.raises(InvalidParameterError):
            s.get((0, -1))

    def test_set_wrong_size(self):
        s = Stripe(2, 2, 4)
        with pytest.raises(InvalidParameterError):
            s.set((0, 0), np.zeros(5, dtype=np.uint8))

    def test_get_erased_fails(self):
        s = Stripe(2, 2, 4)
        s.erase((0, 1))
        with pytest.raises(SimulationError):
            s.get((0, 1))
        with pytest.raises(SimulationError):
            s.mark_latent((0, 1))
        assert s.state[0, 1] == ERASED

    def test_set_clears_erasure(self):
        for fault in ("erase", "mark_latent"):
            for writer in ("set", "fill_random"):
                s = Stripe(2, 2, 4)
                getattr(s, fault)((0, 1))
                if writer == "set":
                    s.set((0, 1), np.ones(4, dtype=np.uint8))
                else:
                    s.fill_random([(0, 1)], seed=1)
                assert s.alive((0, 1)) and s.readable((0, 1))
                assert s.state[0, 1] == HEALTHY


class TestErasure:
    def test_erase_zeroes_content(self):
        for latent in (False, True):
            s = Stripe(1, 1, 4)
            s.set((0, 0), np.full(4, 7, dtype=np.uint8))
            if latent:
                s.mark_latent((0, 0))
            s.erase((0, 0))
            assert not s.data[0, 0].any()
            assert s.state[0, 0] == ERASED

    def test_erase_disks(self):
        s = Stripe(3, 4, 2)
        s.mark_latent((2, 1))
        s.mark_latent((2, 0))
        s.erase_disks([1, 3])
        assert (s.state[:, 1] == ERASED).all()
        assert (s.state[:, 3] == ERASED).all()
        assert list(s.state[:, 0]) == [HEALTHY, HEALTHY, LATENT]

    def test_erase_disks_out_of_range(self):
        s = Stripe(2, 2, 2)
        with pytest.raises(InvalidParameterError):
            s.erase_disks([2])

    def test_erased_positions_row_major(self):
        s = Stripe(2, 3, 1)
        s.erase((1, 0))
        s.erase((0, 2))
        assert s.erased_positions() == [(0, 2), (1, 0)]


class TestHelpers:
    def test_xor_of(self):
        s = Stripe(1, 3, 2)
        s.set((0, 0), np.array([1, 2], dtype=np.uint8))
        s.set((0, 1), np.array([4, 8], dtype=np.uint8))
        out = s.xor_of([(0, 0), (0, 1)])
        assert list(out) == [5, 10]

    def test_xor_of_empty_is_zero(self):
        s = Stripe(1, 1, 3)
        assert not s.xor_of([]).any()

    def test_copy_is_deep(self):
        s = Stripe(1, 2, 2)
        s.set((0, 0), np.array([9, 9], dtype=np.uint8))
        s.mark_latent((0, 1))
        dup = s.copy()
        assert dup == s and dup.state[0, 1] == LATENT
        dup.set((0, 0), np.zeros(2, dtype=np.uint8))
        dup.erase((0, 1))
        assert s.get((0, 0))[0] == 9
        assert s.state[0, 1] == LATENT

    def test_fill_random_deterministic(self):
        a = Stripe(2, 2, 8)
        b = Stripe(2, 2, 8)
        a.fill_random([(0, 0), (1, 1)], seed=5)
        b.fill_random([(0, 0), (1, 1)], seed=5)
        assert a == b

    def test_equality_covers_erasure(self):
        for fault in ("erase", "mark_latent"):
            a = Stripe(1, 1, 1)
            b = Stripe(1, 1, 1)
            assert a == b
            getattr(b, fault)((0, 0))
            assert a != b


class TestWordViews:
    def test_flat_view_is_slot_ordered_and_shared(self):
        s = Stripe(2, 3, 4)
        s.set((1, 2), np.array([1, 2, 3, 4], dtype=np.uint8))
        flat = s.flat_view()
        assert flat.shape == (6, 4)
        assert list(flat[1 * 3 + 2]) == [1, 2, 3, 4]
        flat[0, 0] = 0xAB
        assert s.get((0, 0))[0] == 0xAB  # a view, not a copy

    def test_as_words_reinterprets_in_place(self):
        s = Stripe(1, 2, 16)
        s.set((0, 1), np.arange(16, dtype=np.uint8))
        words = s.as_words()
        assert words.shape == (2, 2)
        assert words.dtype == np.uint64
        words[0, 0] = 0xFFFF
        assert s.get((0, 0))[0] == 0xFF

    def test_as_words_rejects_unaligned_elements(self):
        with pytest.raises(InvalidParameterError):
            Stripe(1, 1, 7).as_words()
        assert Stripe(1, 1, 8).words_per_element == 1


class TestStripeBatch:
    def _stripes(self, n=3):
        out = []
        for i in range(n):
            s = Stripe(2, 3, 8)
            s.fill_random([(r, c) for r in range(2) for c in range(3)], seed=i)
            out.append(s)
        return out

    def test_from_stripes_roundtrip(self):
        stripes = self._stripes()
        stripes[1].erase((0, 2))
        stripes[2].mark_latent((1, 0))
        batch = StripeBatch.from_stripes(stripes)
        assert len(batch) == 3
        for i, original in enumerate(stripes):
            assert batch.stripe(i) == original

    def test_lane_views_share_batch_memory(self):
        batch = StripeBatch.from_stripes(self._stripes())
        lane = batch.stripe(1)
        lane.set((0, 0), np.full(8, 0x5A, dtype=np.uint8))
        assert batch.data[1, 0, 0, 0] == 0x5A
        lane.mark_latent((1, 2))
        assert np.shares_memory(lane.state, batch.state)
        assert batch.state[1, 1, 2] == LATENT and batch.state.sum() == LATENT

    def test_word_views(self):
        batch = StripeBatch.from_stripes(self._stripes())
        assert batch.flat_view().shape == (3, 6, 8)
        words = batch.as_words()
        assert words.shape == (3, 6, 1)
        assert words.dtype == np.uint64
        assert np.shares_memory(words, batch.data)

    def test_rejects_mismatched_geometry(self):
        a = Stripe(2, 3, 8)
        b = Stripe(2, 4, 8)
        with pytest.raises(InvalidParameterError):
            StripeBatch.from_stripes([a, b])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            StripeBatch.from_stripes([])
