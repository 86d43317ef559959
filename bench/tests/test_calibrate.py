"""Normaliser and percentile arithmetic on synthetic series."""

import numpy as np
import pytest

from bench.calibrate import Calibrator, host_speeds, percentile, pooled

REF = 0.010


def test_slow_stretch_normalises_flat():
    # 40 blocks of identical work; the host runs 1.4x slower from block
    # 15 to 29, and the calibration loop slows with it.
    slow = [15 <= i < 30 for i in range(41)]
    calibrations = [REF * (1.4 if s else 1.0) for s in slow]
    raw = [0.5 * (1.4 if s else 1.0) for s in slow[:40]]
    speeds = host_speeds(calibrations, REF)
    normal = [r * k for r, k in zip(raw, speeds)]
    # Away from the two transitions every block reads exactly 0.5 s ...
    for i in list(range(0, 10)) + list(range(20, 25)) + list(range(35, 40)):
        assert normal[i] == pytest.approx(0.5)
    # ... and the median over blocks does not see the stretch at all.
    assert np.median(normal) == pytest.approx(0.5)
    assert max(raw) == pytest.approx(0.7)


def test_one_wild_calibration_is_outvoted():
    calibrations = [REF] * 21
    calibrations[10] = REF * 3
    assert host_speeds(calibrations, REF) == pytest.approx([1.0] * 20)


def test_speed_is_reference_over_measured():
    assert host_speeds([0.02, 0.02, 0.02], REF) == pytest.approx([0.5, 0.5])


def test_percentiles_and_pooling():
    assert percentile([], 50) == 0.0
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert percentile(range(101), 99) == pytest.approx(99.0)
    blocks = [np.array([1.0, 2.0]), np.array([3.0])]
    assert pooled(blocks).tolist() == [1.0, 2.0, 3.0]
    assert pooled(blocks, [2.0, 0.5]).tolist() == [2.0, 4.0, 1.5]
    assert len(pooled([])) == 0


@pytest.mark.parametrize("loop", ["mix", "stream"])
def test_calibration_loops_run(loop):
    assert 0.0 < Calibrator(loop)() < 1.0
