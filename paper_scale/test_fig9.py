"""Fig. 9 at paper scale: single-disk recovery I/O and double-failure time.

Fig. 9(a) runs the exact MILP planner for p <= 13 and the validated
greedy for larger primes (the full paper sweep 5..23).  Fig. 9(b)
peels every disk pair at every prime.  Shape assertions mirror the
paper: HV reads the least per lost element, ties X-Code's four-chain
parallelism, and cuts 47-60% of the other codes' recovery time.
"""

import pytest

from repro.experiments.fig9_recovery import run_fig9a, run_fig9b

PRIMES_FULL = (5, 7, 11, 13, 17, 19, 23)


@pytest.fixture(scope="module")
def fig9a():
    return run_fig9a(primes=PRIMES_FULL, method="auto")


@pytest.fixture(scope="module")
def fig9b():
    return run_fig9b(primes=PRIMES_FULL)


class TestFig9aShapes:
    def test_hv_lowest_at_every_prime(self, fig9a):
        for col in range(1, len(PRIMES_FULL) + 1):
            hv = fig9a.row_for("HV")[col]
            for name in ("RDP", "HDP", "X-Code", "H-Code"):
                assert hv <= fig9a.row_for(name)[col] + 1e-9

    def test_paper_range_at_p7(self, fig9a):
        hv = fig9a.row_for("HV")[2]
        assert hv == pytest.approx(3.0, abs=0.05)  # Fig. 8's 18/6
        assert 0.02 <= 1 - hv / fig9a.row_for("HDP")[2] <= 0.12  # paper 5.4%
        assert 0.30 <= 1 - hv / fig9a.row_for("H-Code")[2] <= 0.45  # paper 39.8%

    def test_paper_range_at_p23(self, fig9a):
        hv = fig9a.row_for("HV")[7]
        assert 0.01 <= 1 - hv / fig9a.row_for("HDP")[7] <= 0.06  # paper 2.7%
        assert 0.08 <= 1 - hv / fig9a.row_for("H-Code")[7] <= 0.20  # paper 13.8%


class TestFig9bShapes:
    def test_hv_ties_xcode(self, fig9b):
        for col in range(1, len(PRIMES_FULL) + 1):
            hv = fig9b.row_for("HV")[col]
            x = fig9b.row_for("X-Code")[col]
            assert hv <= x * 1.05

    def test_savings_vs_serial_codes(self, fig9b):
        # Paper: 47.4%-59.7% less recovery time at p in {7, 23}.
        for col in (2, 7):
            hv = fig9b.row_for("HV")[col]
            for name in ("RDP", "HDP", "H-Code"):
                saving = 1 - hv / fig9b.row_for(name)[col]
                assert 0.30 <= saving <= 0.70
