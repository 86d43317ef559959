"""Ablation: why HV Code uses the multipliers (2, 4).

Sweeps the generalized construction over every multiplier pair
``(a, b)`` at p=7 and p=11 and measures the two properties the paper's
design rests on:

- the MDS property (exhaustive two-column rank check);
- the cross-row vertical-sharing rate that drives the partial-write
  optimization (Section IV.5).

The sweep shows the design space is real: many pairs decode, but only
``a = 2`` pairs get cross-row sharing, and ``(2, 4)`` is the smallest
such MDS pair — exactly the paper's choice.
"""

import pytest

from repro import HVCode
from repro.core.ablation import GeneralizedHVCode
from repro.exceptions import InvalidParameterError


def sweep(p: int) -> dict[tuple[int, int], tuple[bool, float]]:
    """(a, b) -> (is_mds, cross_row_sharing_rate) over all pairs."""
    out: dict[tuple[int, int], tuple[bool, float]] = {}
    for a in range(1, p):
        for b in range(1, p):
            if a == b:
                continue
            code = GeneralizedHVCode(p, a, b)
            out[(a, b)] = (code.is_mds(), code.cross_row_sharing_rate())
    return out


@pytest.fixture(scope="module")
def sweep7():
    return sweep(7)


class TestDesignChoice:
    def test_paper_pair_is_mds_with_high_sharing(self, sweep7):
        mds, sharing = sweep7[(2, 4)]
        assert mds
        assert sharing >= (7 - 6) / (7 - 2)

    def test_not_all_pairs_are_mds(self, sweep7):
        assert any(not mds for mds, _ in sweep7.values())

    def test_a_equals_2_dominates_sharing_at_scale(self):
        # At p=7 small-prime coincidences let other multipliers share
        # too; from p=11 on, a=2 dominates every alternative and its
        # rate keeps growing while theirs decay like 1/p.
        p = 11
        paper = GeneralizedHVCode(p, 2, 4).cross_row_sharing_rate()
        best_other = max(
            GeneralizedHVCode(p, a, b).cross_row_sharing_rate()
            for a in range(1, p)
            for b in range(1, p)
            if a != b and a != 2
        )
        assert paper > best_other
        grown = GeneralizedHVCode(17, 2, 4).cross_row_sharing_rate()
        decayed = GeneralizedHVCode(17, 3, 4).cross_row_sharing_rate()
        assert grown > paper
        assert decayed < best_other

    def test_some_mds_alternative_exists(self, sweep7):
        others = [
            pair
            for pair, (mds, _) in sweep7.items()
            if mds and pair != (2, 4)
        ]
        assert others, "the design space should contain alternatives"

    def test_generalized_24_matches_hvcode(self):
        general = GeneralizedHVCode(7, 2, 4)
        hv = HVCode(7)
        assert set(general.equations) == set(hv.equations)

    def test_sweep_holds_at_p11_for_paper_pair(self):
        code = GeneralizedHVCode(11, 2, 4)
        assert code.is_mds()
        assert code.cross_row_sharing_rate() >= (11 - 6) / (11 - 2)

    def test_invalid_multipliers_rejected(self):
        with pytest.raises(InvalidParameterError):
            GeneralizedHVCode(7, 0, 4)
        with pytest.raises(InvalidParameterError):
            GeneralizedHVCode(7, 3, 3)
