"""Fig. 7 at paper scale: degraded reads at the paper's p=13.

Runs the paper's full configuration (L in {1,5,10,15}, 100 patterns,
expectation over every failed disk) and asserts Fig. 7's shapes:
X-Code pays the most extra I/O (no horizontal parity), HV the least,
and the L=10 saving against X-Code lands near the paper's 28.3%.
"""

import pytest

from repro.experiments.fig7_degraded_read import run

P = 13
PATTERNS = 100


@pytest.fixture(scope="module")
def fig7():
    return {r.experiment: r for r in run(p=P, num_patterns=PATTERNS, seed=0)}


class TestShapes:
    def test_hv_most_efficient_at_l10(self, fig7):
        hv = fig7["fig7b"].row_for("HV")[3]
        for name in ("RDP", "HDP", "X-Code", "H-Code"):
            assert hv <= fig7["fig7b"].row_for(name)[3]

    def test_xcode_saving_near_paper(self, fig7):
        hv = fig7["fig7b"].row_for("HV")[3]
        x = fig7["fig7b"].row_for("X-Code")[3]
        assert 0.15 <= 1 - hv / x <= 0.40  # paper: 28.3%

    def test_xcode_slowest(self, fig7):
        for col in (2, 3, 4):
            x = fig7["fig7a"].row_for("X-Code")[col]
            assert x >= fig7["fig7a"].row_for("HV")[col]

    def test_efficiency_monotone_toward_one(self, fig7):
        for row in fig7["fig7b"].rows:
            assert row[4] <= row[2]
