"""Fig. 6 experiment tests: structure plus the paper's headline shapes.

The full paper configuration (p=13, 1000 patterns) runs in ~2 s, so
the headline-claim assertions run at full fidelity here.
"""

import math

import pytest

from repro.experiments.fig6_partial_writes import build_traces, run


@pytest.fixture(scope="module")
def fig6():
    """The paper's configuration: p=13, 1000 uniform patterns."""
    return {r.experiment: r for r in run(p=13, num_patterns=1000, seed=0)}


class TestStructure:
    def test_three_tables(self, fig6):
        assert set(fig6) == {"fig6a", "fig6b", "fig6c"}

    def test_rows_are_the_five_codes(self, fig6):
        for result in fig6.values():
            assert [row[0] for row in result.rows] == [
                "RDP",
                "HDP",
                "X-Code",
                "H-Code",
                "HV",
            ]

    def test_traces_built_consistently(self):
        traces = build_traces(600, num_patterns=10, seed=0)
        assert [t.name for t in traces] == [
            "uniform_w_10",
            "uniform_w_30",
            "random (Table II)",
        ]


class TestPaperShapes6a:
    def test_hv_saves_about_28pct_vs_xcode(self, fig6):
        # Paper: 27.6% fewer write requests than X-Code on uniform_w_10.
        col = "uniform_w_10"
        hv = fig6["fig6a"].row_for("HV")[1]
        x = fig6["fig6a"].row_for("X-Code")[1]
        saving = 1 - hv / x
        assert 0.22 <= saving <= 0.33

    def test_hv_saves_about_32pct_vs_hdp(self, fig6):
        hv = fig6["fig6a"].row_for("HV")[1]
        hdp = fig6["fig6a"].row_for("HDP")[1]
        saving = 1 - hv / hdp
        assert 0.27 <= saving <= 0.38

    def test_hv_within_2pct_of_hcode(self, fig6):
        # Paper: only ~0.9% more I/O than H-Code (random trace).
        hv = fig6["fig6a"].row_for("HV")[3]
        hc = fig6["fig6a"].row_for("H-Code")[3]
        assert hv / hc <= 1.02

    def test_longer_writes_cost_more(self, fig6):
        for row in fig6["fig6a"].rows:
            assert row[2] > row[1]  # uniform_w_30 > uniform_w_10


class TestPaperShapes6b:
    def test_balanced_codes_near_one(self, fig6):
        for name in ("HV", "HDP", "X-Code"):
            row = fig6["fig6b"].row_for(name)
            assert row[1] < 1.3  # uniform_w_10
            for value in row[2:]:
                assert value < 1.4

    def test_rdp_badly_unbalanced(self, fig6):
        # Paper: λ = 13.2 on uniform_w_10 and 5.75 on the random trace.
        row = fig6["fig6b"].row_for("RDP")
        assert 11.0 <= row[1] <= 15.0
        assert 4.5 <= row[3] <= 7.0

    def test_hcode_intermediate(self, fig6):
        # Paper: λ ≈ 2.22 / 1.54.
        row = fig6["fig6b"].row_for("H-Code")
        assert 1.4 <= row[1] <= 2.8
        assert 1.2 <= row[3] <= 1.9


class TestPaperShapes6c:
    def test_rdp_slowest(self, fig6):
        for col in (1, 2, 3):
            rdp = fig6["fig6c"].row_for("RDP")[col]
            for name in ("HV", "HDP", "X-Code", "H-Code"):
                assert rdp > fig6["fig6c"].row_for(name)[col]

    def test_hv_beats_the_unbalanced_and_expensive(self, fig6):
        # Paper: HV completes patterns faster than RDP, HDP and X-Code
        # on uniform_w_10; H-Code's two extra disks let it win overall.
        col = 1
        hv = fig6["fig6c"].row_for("HV")[col]
        for name in ("RDP", "HDP", "X-Code"):
            assert hv < fig6["fig6c"].row_for(name)[col]


class TestDeterminism:
    def test_same_seed_same_numbers(self):
        a = run(p=7, num_patterns=50, seed=5)
        b = run(p=7, num_patterns=50, seed=5)
        assert a[0].rows == b[0].rows
