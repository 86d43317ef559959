"""Tests for fault plans: determinism, validation, targeting."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.faults import FaultEvent, FaultKind, FaultPlan


class TestFaultEvent:
    def test_position(self):
        e = FaultEvent(FaultKind.LATENT_SECTOR, disk=3, row=2)
        assert e.position == (2, 3)

    def test_rejects_negative_at_op(self):
        with pytest.raises(InvalidParameterError):
            FaultEvent(FaultKind.DISK_CRASH, at_op=-1)

    def test_rejects_non_positive_count(self):
        with pytest.raises(InvalidParameterError):
            FaultEvent(FaultKind.TRANSIENT_IO, count=0)

    @pytest.mark.parametrize("mask", [0, 256, -1])
    def test_rejects_bad_mask(self, mask):
        with pytest.raises(InvalidParameterError):
            FaultEvent(FaultKind.BIT_FLIP, mask=mask)

    def test_frozen(self):
        e = FaultEvent(FaultKind.DISK_CRASH, disk=1)
        with pytest.raises(AttributeError):
            e.disk = 2


class TestFaultPlan:
    def test_events_sorted_by_at_op(self):
        plan = FaultPlan(
            events=[
                FaultEvent(FaultKind.DISK_CRASH, at_op=9, disk=0),
                FaultEvent(FaultKind.DISK_CRASH, at_op=1, disk=1),
            ]
        )
        assert [e.at_op for e in plan] == [1, 9]

    def test_add_keeps_order(self):
        plan = FaultPlan()
        plan.add(FaultEvent(FaultKind.DISK_CRASH, at_op=5, disk=0))
        plan.add(FaultEvent(FaultKind.BIT_FLIP, at_op=2, disk=1))
        assert [e.at_op for e in plan] == [2, 5]
        assert len(plan) == 2

    def test_default_mix_has_one_crash(self):
        plan = FaultPlan.random(
            3, rows=4, cols=5, stripes=2, element_size=16
        )
        assert [e.kind for e in plan].count(FaultKind.DISK_CRASH) == 1

    def test_to_dict_round_trippable(self):
        plan = FaultPlan.random(
            7, rows=4, cols=5, stripes=2, element_size=16
        )
        d = plan.to_dict()
        assert d["seed"] == 7
        assert len(d["events"]) == len(plan)
        assert all(e["at_op"] >= 0 for e in d["events"])


class TestRandomPlans:
    def test_same_seed_same_plan(self):
        kwargs = dict(rows=6, cols=7, stripes=4, element_size=32)
        a = FaultPlan.random(11, **kwargs)
        b = FaultPlan.random(11, **kwargs)
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        kwargs = dict(rows=6, cols=7, stripes=4, element_size=32)
        plans = {
            str(FaultPlan.random(s, **kwargs).to_dict()) for s in range(8)
        }
        assert len(plans) > 1

    def test_sector_faults_avoid_crashed_disks(self):
        for seed in range(20):
            plan = FaultPlan.random(
                seed, rows=6, cols=7, stripes=4, element_size=32
            )
            crashed = {e.disk for e in plan if e.kind is FaultKind.DISK_CRASH}
            for kind in (FaultKind.LATENT_SECTOR, FaultKind.BIT_FLIP):
                assert all(e.disk not in crashed for e in plan if e.kind is kind)

    def test_event_mix_matches_request(self):
        plan = FaultPlan.random(
            5, rows=6, cols=7, stripes=4, element_size=32,
            crashes=2, latent=0, flips=0, transients=3,
        )
        kinds = [e.kind for e in plan]
        assert kinds.count(FaultKind.DISK_CRASH) == 2
        assert kinds.count(FaultKind.TRANSIENT_IO) == 3
        assert len(plan) == 5

    def test_rejects_more_than_two_crashes(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.random(
                0, rows=6, cols=7, stripes=4, element_size=32, crashes=3
            )

    def test_rejects_double_crash_plus_sector_faults(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.random(
                0, rows=6, cols=7, stripes=4, element_size=32,
                crashes=2, latent=1,
            )

    def test_rejects_zero_stripes(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.random(
                0, rows=6, cols=7, stripes=0, element_size=32
            )
