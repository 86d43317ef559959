"""Ablation: are the timing figures artifacts of the disk model?

Fig. 6(c), 7(a) and 9(b) report simulated time, so their orderings
must be robust to the latency-model parameters (the I/O-count figures
are hardware-free by construction).  This module re-runs Fig. 6(c) and
Fig. 9(b) under three disk models — seek-dominated, balanced, and
bandwidth-dominated — and asserts the paper's orderings hold in all.
"""

import pytest

from repro.array.latency import LatencyModel
from repro.experiments.fig6_partial_writes import run as run_fig6
from repro.experiments.fig9_recovery import run_fig9b

MODELS = {
    "seek-dominated": LatencyModel(seek_ms=20.0, bandwidth_mb_per_s=400.0),
    "balanced": LatencyModel(),
    "bandwidth-dominated": LatencyModel(seek_ms=0.5, bandwidth_mb_per_s=60.0),
}


def run_all_models():
    out = {}
    for label, model in MODELS.items():
        fig6c = {
            r.experiment: r
            for r in run_fig6(p=13, num_patterns=150, seed=0, latency=model)
        }["fig6c"]
        fig9b = run_fig9b(primes=(7, 13), latency=model)
        out[label] = (fig6c, fig9b)
    return out


@pytest.fixture(scope="module")
def all_models():
    return run_all_models()


class TestRobustness:
    def test_rdp_slowest_writes_under_every_model(self, all_models):
        for label, (fig6c, _) in all_models.items():
            rdp = fig6c.row_for("RDP")[1]
            for name in ("HV", "HDP", "X-Code", "H-Code"):
                assert rdp > fig6c.row_for(name)[1], label

    def test_hv_recovery_fastest_under_every_model(self, all_models):
        for label, (_, fig9b) in all_models.items():
            for col in (1, 2):
                hv = fig9b.row_for("HV")[col]
                for name in ("RDP", "HDP", "H-Code"):
                    assert hv < fig9b.row_for(name)[col], label

    def test_absolute_times_do_change(self, all_models):
        # Sanity: the sweep is not a no-op — absolute numbers move.
        values = [
            fig9b.row_for("HV")[1] for _, (_, fig9b) in all_models.items()
        ]
        assert len(set(round(v, 6) for v in values)) > 1
