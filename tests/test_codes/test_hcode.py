"""H-Code construction tests against the HV paper's description of it."""

import pytest

from repro import HCode
from repro.codes.base import ElementKind


@pytest.fixture(scope="module")
def hcode():
    return HCode(7)


class TestLayout:
    def test_shape(self, hcode):
        assert hcode.rows == 6
        assert hcode.cols == 8

    def test_dedicated_horizontal_disk(self, hcode):
        for r in range(hcode.rows):  # the last column, p
            assert hcode.layout[(r, hcode.p)] is ElementKind.HORIZONTAL

    def test_anti_parities_on_inner_diagonal(self, hcode):
        for i in range(1, 7):
            assert hcode.layout[(i - 1, i)] is ElementKind.ANTIDIAGONAL

    def test_column_zero_is_pure_data(self, hcode):
        for r in range(hcode.rows):
            assert hcode.layout[(r, 0)] is ElementKind.DATA

    def test_unbalanced_parity(self, hcode):
        from repro.metrics.balance import is_parity_balanced, parity_distribution

        assert not is_parity_balanced(hcode)
        dist = parity_distribution(hcode)
        assert dist[hcode.p] == hcode.rows
        assert dist[0] == 0

    def test_data_count(self, hcode):
        assert hcode.data_elements_per_stripe == (7 - 1) ** 2


class TestChains:
    def test_chain_length_p(self, hcode):
        # Table III: H-Code parity chain length is p.
        assert all(chain.length == 7 for chain in hcode.chains)

    def test_optimal_update_complexity(self, hcode):
        assert hcode.average_update_complexity() == 2.0

    def test_anti_chains_follow_wrapped_diagonal(self, hcode):
        p = 7
        for i in range(1, p):
            chain = hcode.chain_at[(i - 1, i)]
            # 1-based row k+1, 0-based column j: diagonal j - k ≡ i.
            diffs = {(j - (k + 1)) % p for k, j in chain.members}
            assert diffs == {i % p}

    def test_cross_row_pairs_share_anti_parity(self, hcode):
        # The H-Code signature the HV paper cites: the last data
        # element of row i and the first of row i+1 share an
        # anti-diagonal chain, so every cross-row two-element write
        # costs exactly 3 parity updates.
        cells = hcode.data_positions
        for a, b in zip(cells, cells[1:]):
            if a[0] == b[0]:
                continue
            dirty = hcode.update_targets(a) | hcode.update_targets(b)
            assert len(dirty) == 3, (a, b)

    def test_two_element_write_cost_is_optimal(self, hcode):
        from repro.experiments.table3_comparison import (
            average_two_element_write_cost,
        )

        assert average_two_element_write_cost(hcode) == 3.0
