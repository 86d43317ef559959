"""Tests for the parity-check system (capability oracle + solver)."""

import numpy as np
import pytest

from repro import HVCode, RDPCode
from repro.utils import pairs
from repro.xor.equations import ParityCheckSystem


def tiny_system():
    """3 cells, one equation: a ^ b ^ c = 0."""
    positions = [(0, 0), (0, 1), (0, 2)]
    return ParityCheckSystem(positions, [frozenset(positions)])


class TestConstruction:
    def test_matrix_shape(self):
        system = tiny_system()
        assert system.matrix.shape == (1, 3)
        assert system.matrix.all()

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            ParityCheckSystem([(0, 0), (0, 0)], [])

    def test_code_system_dimensions(self):
        code = HVCode(7)
        system = code.parity_check_system
        assert system.matrix.shape == (2 * (7 - 1), (7 - 1) ** 2)


class TestCanRecover:
    def test_empty_is_recoverable(self):
        assert tiny_system().can_recover([])

    def test_single_cell(self):
        assert tiny_system().can_recover([(0, 1)])

    def test_two_cells_one_equation_fails(self):
        assert not tiny_system().can_recover([(0, 0), (0, 1)])

    def test_matches_actual_decode_for_hv(self):
        code = HVCode(5)
        system = code.parity_check_system
        for f1, f2 in pairs(code.cols):
            erased = [(r, d) for d in (f1, f2) for r in range(code.rows)]
            assert system.can_recover(erased)

    def test_three_disks_exceed_raid6(self):
        code = RDPCode(5)
        erased = [(r, d) for d in (0, 1, 2) for r in range(code.rows)]
        assert not code.parity_check_system.can_recover(erased)


class TestSolveErased:
    def test_tiny_roundtrip(self):
        system = tiny_system()
        # a=5, b=9, c=a^b so the equation holds; erase a.
        rhs = np.array([[9 ^ (5 ^ 9)]], dtype=np.uint8)
        out = system.solve_erased([(0, 0)], rhs)
        assert out[0, 0] == 5

    def test_rank_counts_independent_constraints(self):
        code = HVCode(7)
        # All 12 chains of HV(7) are independent... up to the global
        # dependency structure; rank is at least rows+1 and at most 12.
        rank = code.parity_check_system.rank()
        assert 6 <= rank <= 12
        # MDS requires enough rank to cover two lost disks:
        assert rank >= 2 * code.rows
