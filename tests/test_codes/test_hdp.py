"""HDP construction tests against the HV paper's description of it."""

import pytest

from repro import HDPCode
from repro.codes.base import ElementKind


@pytest.fixture(scope="module")
def hdp():
    return HDPCode(7)


class TestLayout:
    def test_shape(self, hdp):
        assert hdp.rows == 6
        assert hdp.cols == 6

    def test_parities_on_diagonals(self, hdp):
        p = 7
        for i in range(1, p):
            assert hdp.layout[(i - 1, i - 1)] is ElementKind.HORIZONTAL
            assert hdp.layout[(i - 1, (p - i) - 1)] is ElementKind.ANTIDIAGONAL

    def test_balanced_parity(self, hdp):
        from repro.metrics.balance import parity_distribution

        assert parity_distribution(hdp) == [2] * 6


class TestChains:
    def test_horizontal_includes_anti_parity(self, hdp):
        # "the diagonal parity element joins the calculation of the
        # horizontal parity element" — the HV paper on HDP.
        p = 7
        for i in range(1, p):
            chain = hdp.chain_at[(i - 1, i - 1)]
            anti_cell = (i - 1, (p - i) - 1)
            assert anti_cell in chain.members

    def test_update_complexity_is_three(self, hdp):
        # Table III: HDP costs 3 extra updates per data write.
        for pos in hdp.data_positions:
            assert hdp.update_complexity(pos) == 3

    def test_chain_lengths_match_table3(self, hdp):
        # Table III: HDP chain lengths are p-2 and p-1.
        lengths = {}
        for chain in hdp.chains:
            lengths[chain.kind] = max(lengths.get(chain.kind, 0), chain.length)
        assert lengths[ElementKind.HORIZONTAL] == 7 - 1
        assert lengths[ElementKind.ANTIDIAGONAL] == 7 - 2

    def test_anti_chains_follow_one_wrapped_diagonal(self, hdp):
        # Every anti chain's data members share a single j-k (mod p)
        # residue, the diagonal through the parity cell.
        p = 7
        for i in range(1, p):
            chain = hdp.chain_at[(i - 1, (p - i) - 1)]
            diffs = {((j + 1) - (k + 1)) % p for k, j in chain.members}
            assert diffs == {(-2 * i) % p}

    def test_anti_members_are_data(self, hdp):
        for chain in hdp.chains:
            if chain.kind is ElementKind.ANTIDIAGONAL:
                for member in chain.members:
                    assert hdp.layout[member] is ElementKind.DATA

    def test_each_data_cell_in_one_anti_chain(self, hdp):
        for pos in hdp.data_positions:
            kinds = [c.kind for c in hdp.chains_through[pos]]
            assert kinds.count(ElementKind.ANTIDIAGONAL) == 1
            assert kinds.count(ElementKind.HORIZONTAL) == 1
