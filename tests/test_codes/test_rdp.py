"""RDP construction tests against the paper's Fig. 1 examples."""

import pytest

from repro import RDPCode
from repro.codes.base import ElementKind


@pytest.fixture(scope="module")
def rdp():
    return RDPCode(5)


def cell(i: int, j: int):
    """Paper 1-based E_{i,j} (Fig. 1 uses 1-based rows/disks)."""
    return (i - 1, j - 1)


class TestLayout:
    def test_shape(self, rdp):
        assert rdp.rows == 4
        assert rdp.cols == 6

    def test_dedicated_parity_disks(self, rdp):
        for r in range(rdp.rows):  # columns p - 1 and p
            assert rdp.layout[(r, rdp.p - 1)] is ElementKind.ROW
            assert rdp.layout[(r, rdp.p)] is ElementKind.DIAGONAL
        # All other columns are pure data.
        for c in range(rdp.cols - 2):
            for r in range(rdp.rows):
                assert rdp.layout[(r, c)] is ElementKind.DATA

    def test_data_count(self, rdp):
        assert rdp.data_elements_per_stripe == (5 - 1) ** 2


class TestChains:
    def test_horizontal_chain_from_fig1a(self, rdp):
        # {E_{1,1}, ..., E_{1,5}} is a horizontal parity chain of length 5.
        chain = rdp.chain_at[cell(1, 5)]
        assert set(chain.members) == {cell(1, j) for j in range(1, 5)}
        assert chain.length == 5

    def test_diagonal_chain_from_fig1b(self, rdp):
        # {E_{1,1}, E_{4,3}, E_{3,4}, E_{2,5}, E_{1,6}}: note it passes
        # through the row-parity column (E_{2,5}).
        chain = rdp.chain_at[cell(1, 6)]
        assert set(chain.members) == {
            cell(1, 1),
            cell(4, 3),
            cell(3, 4),
            cell(2, 5),
        }

    def test_diagonal_includes_row_parity_column(self, rdp):
        includes = False
        for chain in rdp.chains:
            if chain.kind is ElementKind.DIAGONAL:
                for _, c in chain.members:
                    if c == rdp.p - 1:  # the row-parity column
                        includes = True
        assert includes

    def test_missing_diagonal_unprotected(self, rdp):
        # Diagonal p-1 (cells with i+j ≡ 0 in 1-based, i.e. a+b ≡ p-1
        # 0-based) appears in no diagonal chain.
        p = rdp.p
        uncovered = {
            (a, b)
            for a in range(p - 1)
            for b in range(p)
            if (a + b) % p == p - 1
        }
        for chain in rdp.chains:
            if chain.kind is ElementKind.DIAGONAL:
                assert not (set(chain.members) & uncovered)

    def test_update_complexity_exceeds_two(self, rdp):
        # RDP's diagonal-over-row-parity construction makes some data
        # updates dirty 3 parities ("more than 2 extra updates",
        # Table III).
        assert rdp.average_update_complexity() > 2.0


class TestUnbalance:
    def test_parity_concentrated(self, rdp):
        from repro.metrics.balance import is_parity_balanced, parity_distribution

        assert not is_parity_balanced(rdp)
        dist = parity_distribution(rdp)
        assert dist[rdp.p - 1] == rdp.rows
        assert dist[rdp.p] == rdp.rows
        assert sum(dist[: rdp.cols - 2]) == 0
