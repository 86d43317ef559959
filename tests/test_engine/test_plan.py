"""The XorPlan IR: construction guards, topology, hashing, cost model."""

import dataclasses

import pytest

from repro.engine import PLAN_OPS, XorPlan, XorStep
from repro.exceptions import DecodeError, PlanError


def plan_of(steps, *, rows=2, cols=3, **kwargs):
    return XorPlan(
        code_name="T",
        p=5,
        op=kwargs.pop("op", "encode"),
        pattern=kwargs.pop("pattern", ()),
        rows=rows,
        cols=cols,
        steps=tuple(steps),
        **kwargs,
    )


class TestXorStep:
    def test_rejects_empty_sources(self):
        with pytest.raises(PlanError):
            XorStep(dst=0, srcs=())

    def test_rejects_dst_in_sources(self):
        with pytest.raises(PlanError):
            XorStep(dst=1, srcs=(0, 1))

    def test_rejects_duplicate_sources(self):
        with pytest.raises(PlanError):
            XorStep(dst=2, srcs=(0, 0))

    def test_xor_cost(self):
        assert XorStep(dst=3, srcs=(0,)).xors == 0  # a copy
        assert XorStep(dst=3, srcs=(0, 1, 2)).xors == 2


class TestValidation:
    def test_accepts_topological_schedule(self):
        plan_of([XorStep(2, (0, 1)), XorStep(5, (2, 3))])

    def test_rejects_unknown_op(self):
        with pytest.raises(PlanError, match="unknown plan op"):
            plan_of([XorStep(2, (0, 1))], op="transmogrify")

    def test_rejects_read_of_erased_slot(self):
        with pytest.raises(PlanError, match="before any step defines"):
            plan_of([XorStep(2, (0, 1))], erased=(0,))

    def test_rejects_read_of_temp_before_definition(self):
        with pytest.raises(PlanError, match="before any step defines"):
            plan_of([XorStep(2, (0, 6))], num_temps=1)

    def test_accepts_temp_after_definition(self):
        plan_of([XorStep(6, (0, 1)), XorStep(2, (0, 6))], num_temps=1)

    def test_rejects_out_of_range_slots(self):
        with pytest.raises(PlanError, match="slot"):
            plan_of([XorStep(99, (0, 1))])

    def test_rejects_unwritten_outputs(self):
        with pytest.raises(PlanError, match="never written"):
            plan_of([XorStep(2, (0, 1))], outputs=(3,))

    def test_erased_slot_is_readable_once_repaired(self):
        plan_of(
            [XorStep(0, (1, 2)), XorStep(3, (0, 4))],
            erased=(0, 3),
            outputs=(0, 3),
        )

    def test_groups_must_partition_after_preamble(self):
        with pytest.raises(PlanError, match="partition"):
            plan_of(
                [XorStep(2, (0, 1)), XorStep(5, (3, 4))],
                groups=((0,),),  # step 1 missing
            )
        plan_of(
            [XorStep(2, (0, 1)), XorStep(5, (3, 4))],
            groups=((0,), (1,)),
        )
        plan_of(
            [XorStep(2, (0, 1)), XorStep(5, (3, 4))],
            groups=((1,),),
            preamble=1,
        )

    def test_plan_error_is_a_decode_error(self):
        assert issubclass(PlanError, DecodeError)


class TestGeometry:
    def test_slot_position_roundtrip(self):
        plan = plan_of([XorStep(2, (0, 1))])
        for slot in range(plan.num_cells):
            assert plan.slot_of(plan.position_of(slot)) == slot

    def test_slot_of_rejects_outside_grid(self):
        plan = plan_of([XorStep(2, (0, 1))])
        with pytest.raises(PlanError):
            plan.slot_of((5, 0))

    def test_position_of_rejects_temp_slots(self):
        plan = plan_of([XorStep(2, (0, 1))], num_temps=2)
        with pytest.raises(PlanError):
            plan.position_of(plan.num_cells)


    def test_pattern_and_output_positions(self):
        plan = plan_of(
            [XorStep(3, (0, 5))], cols=4, op="update", pattern=(0, 5), outputs=(3,)
        )
        assert plan.pattern_positions == ((0, 0), (1, 1))
        assert plan.output_positions == ((0, 3),)

    @pytest.mark.parametrize(
        "op, pattern",
        [("recover-double", (0, 1)), ("read", ((1, 4), (1, 4), ())), ("encode", ())],
    )
    def test_pattern_positions_refuses_a_pattern_not_of_cells(self, op, pattern):
        plan = plan_of([XorStep(1, (0, 2))], op=op, pattern=pattern)
        with pytest.raises(PlanError, match="only an update or decode pattern"):
            plan.pattern_positions


class TestDerived:
    def test_built_once_and_kept_on_the_plan(self):
        plan = plan_of([XorStep(2, (0, 1))])
        built = []
        first = plan.derived("lowered", lambda p: built.append(p) or object())
        assert plan.derived("lowered", lambda p: built.append(p) or object()) is first
        assert built == [plan]

    def test_copies_and_pickles_carry_the_fields_only(self):
        import copy
        import pickle

        plan = plan_of([XorStep(2, (0, 1))])
        plan.derived("lowered", lambda p: object())
        _ = plan.plan_hash, plan.reads
        for clone in (copy.copy(plan), copy.deepcopy(plan), pickle.loads(pickle.dumps(plan))):
            assert clone == plan and clone.plan_hash == plan.plan_hash
            assert "lowered" not in vars(clone)


class TestCostModel:
    def test_xors_and_kernels(self):
        plan = plan_of([XorStep(2, (0, 1)), XorStep(5, (2,))])
        assert plan.xors_per_word == 1
        assert plan.kernel_calls == 2  # one XOR + one copy

    def test_reads_excludes_written_then_read_cells(self):
        plan = plan_of([XorStep(2, (0, 1)), XorStep(5, (2, 3))])
        assert plan.reads == (0, 1, 3)


class TestHashing:
    def test_hash_is_deterministic(self):
        a = plan_of([XorStep(2, (0, 1))])
        b = plan_of([XorStep(2, (0, 1))])
        assert a.plan_hash == b.plan_hash
        assert a == b

    def test_hash_tracks_schedule_content(self):
        a = plan_of([XorStep(2, (0, 1))])
        b = plan_of([XorStep(2, (0, 3))])
        assert a.plan_hash != b.plan_hash

    def test_groups_do_not_affect_identity(self):
        a = plan_of([XorStep(2, (0, 1))])
        b = plan_of([XorStep(2, (0, 1))], groups=((0,),))
        assert a == b
        assert a.plan_hash == b.plan_hash

    def test_key_format(self):
        plan = plan_of([XorStep(2, (0, 1))], op="recover-double", pattern=(0, 2))
        assert plan.key == "T@5:recover-double:d0d2"
        assert plan_of([XorStep(2, (0, 1))]).key == "T@5:encode"
        read = plan_of(
            [XorStep(2, (0, 1)), XorStep(5, (3, 4))],
            op="read",
            pattern=((2, 5), (2, 5), ()),
            erased=(2, 5),
            outputs=(2, 5),
        )
        assert read.key == "T@5:read:e2e5:w2w5"
        partial = plan_of(
            [XorStep(2, (0, 1))],
            op="read",
            pattern=((2, 5), (2,), (0, 1)),
            erased=(2, 5),
            outputs=(2,),
        )
        assert partial.key == "T@5:read:e2e5:w2:f0f1"

    def test_dataclass_replace_changes_hash(self):
        plan = plan_of([XorStep(2, (0, 1))])
        other = dataclasses.replace(plan, num_temps=7)
        assert other.plan_hash != plan.plan_hash

    def test_plan_ops_catalogue(self):
        assert "encode" in PLAN_OPS and "recover-double" in PLAN_OPS
        # a single-failure repair is a ``read``: no op of its own
        assert "recover-single" not in PLAN_OPS and "reconstruct" not in PLAN_OPS
