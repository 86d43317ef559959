"""HV Code construction tests against the paper's worked examples.

Fig. 4 of the paper (p=7) gives concrete instances of Eq. (1) and
Eq. (2); these tests pin our implementation to them, 1-based exactly
as printed.
"""

import pytest

from repro import HVCode
from repro.codes.base import ElementKind
from repro.exceptions import InvalidParameterError
from repro.utils import EVALUATION_PRIMES


@pytest.fixture(scope="module")
def hv():
    return HVCode(7)


def cell(i: int, j: int):
    """Paper 1-based E_{i,j} -> internal 0-based position."""
    return (i - 1, j - 1)


class TestLayout:
    def test_grid_shape(self, hv):
        assert hv.rows == 6
        assert hv.cols == 6
        assert hv.num_disks == 6

    def test_parity_columns_follow_2i_4i(self, hv):
        for i in range(1, 7):
            assert hv.layout[cell(i, (2 * i) % 7)] is ElementKind.HORIZONTAL
            assert hv.vertical_parity_column_1based(i) == (4 * i) % 7

    def test_row1_parities_from_fig4(self, hv):
        # Fig. 4: row 1 has its horizontal parity at column 2 and its
        # vertical parity at column 4.
        assert hv.layout[cell(1, 2)] is ElementKind.HORIZONTAL
        assert hv.layout[cell(1, 4)] is ElementKind.VERTICAL

    def test_every_row_and_column_has_both_parities(self, hv):
        for r in range(hv.rows):
            kinds = [hv.layout[(r, c)] for c in range(hv.cols)]
            assert kinds.count(ElementKind.HORIZONTAL) == 1
            assert kinds.count(ElementKind.VERTICAL) == 1
        for c in range(hv.cols):
            kinds = [hv.layout[(r, c)] for r in range(hv.rows)]
            assert kinds.count(ElementKind.HORIZONTAL) == 1
            assert kinds.count(ElementKind.VERTICAL) == 1

    def test_data_count(self, hv):
        assert hv.data_elements_per_stripe == (7 - 3) * (7 - 1)

    def test_index_validation(self, hv):
        with pytest.raises(InvalidParameterError):
            hv.vertical_parity_column_1based(0)
        with pytest.raises(InvalidParameterError):
            hv.vertical_parity_column_1based(7)


class TestEquation1:
    def test_paper_example_e12(self, hv):
        # E_{1,2} := E_{1,1} ⊕ E_{1,3} ⊕ E_{1,5} ⊕ E_{1,6}  (Fig. 4(a))
        chain = hv.chain_at[cell(1, 2)]
        assert chain.kind is ElementKind.HORIZONTAL
        assert set(chain.members) == {cell(1, 1), cell(1, 3), cell(1, 5), cell(1, 6)}

    def test_horizontal_chains_stay_in_row(self, hv):
        for chain in hv.horizontal_chains:
            rows = {r for r, _ in chain.equation_cells}
            assert len(rows) == 1

    def test_horizontal_members_are_data(self, hv):
        for chain in hv.horizontal_chains:
            for member in chain.members:
                assert hv.layout[member] is ElementKind.DATA

    def test_chain_length_p_minus_2(self, hv):
        for chain in hv.chains:
            assert chain.length == 7 - 2


class TestEquation2:
    def test_paper_example_e14(self, hv):
        # E_{1,4} := E_{6,2} ⊕ E_{3,3} ⊕ E_{4,5} ⊕ E_{1,6}  (Fig. 4(b))
        chain = hv.chain_at[cell(1, 4)]
        assert chain.kind is ElementKind.VERTICAL
        assert set(chain.members) == {cell(6, 2), cell(3, 3), cell(4, 5), cell(1, 6)}

    def test_vertical_members_satisfy_congruence(self, hv):
        # Members E_{k,j} of the vertical parity at row i satisfy
        # <2k + 4i>_7 = j (1-based).
        for idx, chain in enumerate(hv.vertical_chains, start=1):
            for (k0, j0) in chain.members:
                k, j = k0 + 1, j0 + 1
                assert (2 * k + 4 * idx) % 7 == j % 7

    def test_vertical_members_are_data(self, hv):
        for chain in hv.vertical_chains:
            for member in chain.members:
                assert hv.layout[member] is ElementKind.DATA

    def test_vertical_chain_of_matches_membership(self, hv):
        for pos in hv.data_positions:
            chain = hv.vertical_chain_of(pos)
            assert pos in chain.members

    def test_horizontal_chain_of_matches_membership(self, hv):
        for pos in hv.data_positions:
            assert sum(pos in chain.members for chain in hv.horizontal_chains) == 1

    def test_chain_of_rejects_parity(self, hv):
        with pytest.raises(InvalidParameterError):
            hv.vertical_chain_of(cell(1, 2))
        with pytest.raises(InvalidParameterError):
            hv.vertical_chain_of(cell(1, 4))


class TestCrossRowSharing:
    def test_last_and_first_data_share_vertical_parity(self, hv):
        # Section IV.5: E_{i,p-1} and E_{i+1,1}, when both are data,
        # belong to the same vertical chain.
        p = 7
        for i in range(1, p - 1):
            last = cell(i, p - 1)
            first = cell(i + 1, 1)
            if hv.layout[last] is not ElementKind.DATA:
                continue
            if hv.layout[first] is not ElementKind.DATA:
                continue
            assert hv.vertical_chain_of(last) is hv.vertical_chain_of(first)


class TestScaling:
    @pytest.mark.parametrize("p", [5, 11, 13, 17])
    def test_construction_at_other_primes(self, p):
        code = HVCode(p)
        assert code.rows == code.cols == p - 1
        assert all(chain.length == p - 2 for chain in code.chains)
        stripe = code.random_stripe(element_size=2, seed=0)
        assert code.verify(stripe)

    @pytest.mark.parametrize("p", EVALUATION_PRIMES)
    def test_hv_encode_xor_count_optimal(self, p):
        """Section IV.2: 2(p-4)/(p-3) XORs per data element is optimal."""
        code = HVCode(p)
        total_xors = sum(len(chain.members) - 1 for chain in code.chains)
        per_data_element = total_xors / code.data_elements_per_stripe
        assert per_data_element == pytest.approx(2 * (p - 4) / (p - 3))
