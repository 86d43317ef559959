"""The symbolic GF(2) plan verifier: proofs, P-rules, mutation tests."""

import dataclasses

import pytest

from repro.codes.registry import available_codes, get_code
from repro.engine.compile import PlanCache, compile_plan
from repro.engine.plan import XorPlan, XorStep
from repro.exceptions import CertificationError, PlanError
from repro.static import (
    PLAN_RULES,
    PLAN_VERIFY_PRIMES,
    CodeSymbols,
    lint_plan,
    plan_patterns,
    verify_code_plans,
    verify_plan,
)


@pytest.fixture(scope="module")
def hv5():
    return get_code("HV", 5)


@pytest.fixture(scope="module")
def hv5_symbols(hv5):
    return CodeSymbols(hv5)


def _column_read(code, disk):
    """The ``read`` pattern of one whole lost column: a disk's rebuild."""
    column = tuple(range(disk, code.rows * code.cols, code.cols))
    return (column, column, ())


#: The ``read`` pattern of one lost cell: a latent cell's repair.
ONE_CELL_READ = ((0,), (0,), ())


def _mutate(plan, **changes):
    """Rebuild a plan with fields swapped; must still pass validate()."""
    return dataclasses.replace(plan, **changes)


class TestSymbolicDomain:
    def test_data_cells_are_unit_vectors(self, hv5, hv5_symbols):
        for i, slot in enumerate(hv5_symbols.data_slots):
            assert hv5_symbols.valuation[slot] == 1 << i

    def test_parities_expand_to_their_chain_members(self, hv5, hv5_symbols):
        for chain in hv5.chains:
            slot = chain.parity[0] * hv5.cols + chain.parity[1]
            expect = 0
            for r, c in chain.members:
                expect ^= hv5_symbols.valuation[r * hv5.cols + c]
            assert hv5_symbols.valuation[slot] == expect

    def test_nested_parity_expands_to_data_basis_only(self):
        # RDP diagonals read row parities; the valuation must bottom
        # out at data cells regardless.
        code = get_code("RDP", 5)
        symbols = CodeSymbols(code)
        data_mask = (1 << len(symbols.data_slots)) - 1
        for slot in symbols.parity_slots:
            assert symbols.valuation[slot] & ~data_mask == 0
            assert symbols.valuation[slot] != 0

    def test_render_mask_names_data_terms(self, hv5_symbols):
        assert hv5_symbols.render_mask(0) == "0"
        assert hv5_symbols.render_mask(0b101) == "d0 ^ d2"


class TestVerifyPlan:
    @pytest.mark.parametrize("op,pattern", [
        ("encode", ()),
        ("read", ((0, 4, 8, 12), (0, 4, 8, 12), ())),  # HV@5's disk 0
        ("read", ONE_CELL_READ),
        ("recover-double", (0, 1)),
        ("decode", (0, 5)),
    ])
    def test_accepts_valid_hv_plans(self, hv5, hv5_symbols, op, pattern):
        plan = compile_plan(hv5, op, pattern, cache=None)
        verify_plan(hv5, plan, symbols=hv5_symbols)

    def test_accepts_valid_update_plan(self, hv5, hv5_symbols):
        cells = tuple(hv5.data_positions[:2])
        plan = compile_plan(hv5, "update", cells, cache=None)
        verify_plan(hv5, plan, symbols=hv5_symbols)

    def test_rejects_wrong_geometry(self, hv5):
        plan = compile_plan(get_code("HV", 7), "encode", cache=None)
        with pytest.raises(CertificationError, match="geometry"):
            verify_plan(hv5, plan)

    def test_mutation_dropped_step(self, hv5):
        """Dropping a step (and its output) must be caught."""
        plan = compile_plan(hv5, "read", _column_read(hv5, 0), cache=None)
        corrupt = _mutate(plan, steps=plan.steps[:-1], outputs=plan.outputs[:-1])
        with pytest.raises(CertificationError, match="wanted cells of its pattern"):
            verify_plan(hv5, corrupt)

    def test_mutation_swapped_source_slot(self, hv5):
        """Swapping one source for another live slot changes the value."""
        plan = compile_plan(hv5, "encode", cache=None)
        step = plan.steps[0]
        swapped = tuple(
            s for s in range(hv5.rows * hv5.cols)
            if s not in step.srcs and s != step.dst
        )[0]
        bad = XorStep(dst=step.dst, srcs=(swapped,) + step.srcs[1:])
        corrupt = _mutate(plan, steps=(bad,) + plan.steps[1:])
        with pytest.raises(CertificationError, match="requires"):
            verify_plan(hv5, corrupt)

    def test_mutation_swapped_destination(self, hv5):
        """Two outputs written to each other's slots both come out wrong."""
        plan = compile_plan(hv5, "read", _column_read(hv5, 0), cache=None)
        s0, s1 = plan.steps[0], plan.steps[1]
        corrupt = _mutate(
            plan,
            steps=(
                XorStep(dst=s1.dst, srcs=s0.srcs),
                XorStep(dst=s0.dst, srcs=s1.srcs),
            ) + plan.steps[2:],
        )
        with pytest.raises(CertificationError, match="requires"):
            verify_plan(hv5, corrupt)

    def test_rejects_clobbered_live_cell(self, hv5):
        """A step writing a non-output cell slot destroys live data."""
        for op, pattern, match in [
            ("decode", (0,), "clobber"),
            ("read", ONE_CELL_READ, "writes live cell"),
        ]:
            plan = compile_plan(hv5, op, pattern, cache=None)
            victim = plan.steps[0].srcs[0]
            extra = XorStep(dst=victim, srcs=(plan.steps[0].srcs[1],))
            corrupt = _mutate(plan, steps=plan.steps + (extra,))
            with pytest.raises(CertificationError, match=match):
                verify_plan(hv5, corrupt, lint=False)

    def test_update_reading_clean_cell_rejected(self, hv5):
        """Update plans run on delta buffers: clean cells are undefined."""
        cells = (hv5.data_positions[0],)
        plan = compile_plan(hv5, "update", cells, cache=None)
        step = plan.steps[0]
        clean = next(
            r * hv5.cols + c
            for r, c in hv5.data_positions[1:]
            if (r * hv5.cols + c) not in step.srcs
        )
        bad = XorStep(dst=step.dst, srcs=step.srcs + (clean,))
        corrupt = _mutate(plan, steps=(bad,) + plan.steps[1:])
        with pytest.raises(CertificationError, match="no defined value"):
            verify_plan(hv5, corrupt)

    def test_encode_reading_stale_parity_rejected(self, hv5):
        """Junk symbols catch an encode step that reads an unwritten parity."""
        plan = compile_plan(hv5, "encode", cache=None)
        # Make the *first* step read a parity slot that is only written
        # later: its junk symbol survives into the output.
        later_parity = plan.steps[-1].dst
        first = plan.steps[0]
        bad = XorStep(dst=first.dst, srcs=first.srcs + (later_parity,))
        corrupt = _mutate(plan, steps=(bad,) + plan.steps[1:])
        with pytest.raises(CertificationError, match="requires"):
            verify_plan(hv5, corrupt, lint=False)


class TestPlanLint:
    def test_rule_catalogue(self):
        assert set(PLAN_RULES) == {"P001", "P002", "P003", "P004"}

    def test_compiled_plans_are_lint_clean(self, hv5):
        for op, pattern in [
            ("encode", ()),
            ("recover-double", (0, 1)),
            ("update", tuple(hv5.data_positions[:4])),
        ]:
            plan = compile_plan(hv5, op, pattern, cache=None)
            assert lint_plan(plan) == ()

    def test_p001_dead_step(self, hv5):
        """A step computing into a never-read temp is dead."""
        plan = compile_plan(hv5, "read", ONE_CELL_READ, cache=None)
        dead = XorStep(
            dst=plan.num_cells + plan.num_temps, srcs=plan.steps[0].srcs[:2]
        )
        corrupt = _mutate(
            plan, steps=(dead,) + plan.steps, num_temps=plan.num_temps + 1
        )
        rules = [v.rule for v in lint_plan(corrupt)]
        assert "P001" in rules
        with pytest.raises(CertificationError, match="P001"):
            verify_plan(hv5, corrupt)

    def test_p002_unfolded_pair(self):
        """Two steps sharing a pure source pair should have been CSE'd."""
        plan = XorPlan(
            code_name="HV",
            p=5,
            op="decode",
            pattern=(8, 9),
            rows=4,
            cols=4,
            steps=(
                XorStep(dst=8, srcs=(0, 1, 2)),
                XorStep(dst=9, srcs=(0, 1, 3)),
            ),
            erased=(8, 9),
            outputs=(8, 9),
        )
        violations = lint_plan(plan)
        assert [v.rule for v in violations] == ["P002"]
        assert "(0, 1)" in violations[0].message

    def test_p003_cross_group_write_write_race(self):
        plan = XorPlan(
            code_name="HV",
            p=5,
            op="decode",
            pattern=(8,),
            rows=4,
            cols=4,
            steps=(
                XorStep(dst=8, srcs=(0, 1)),
                XorStep(dst=8, srcs=(2, 3)),
            ),
            erased=(8,),
            outputs=(8,),
            groups=((0,), (1,)),
        )
        rules = [v.rule for v in lint_plan(plan)]
        assert "P003" in rules

    def test_p003_cross_group_read_write_race(self):
        plan = XorPlan(
            code_name="HV",
            p=5,
            op="decode",
            pattern=(8, 9),
            rows=4,
            cols=4,
            steps=(
                XorStep(dst=8, srcs=(0, 1)),
                XorStep(dst=9, srcs=(8, 2)),
            ),
            erased=(8, 9),
            outputs=(8, 9),
            groups=((0,), (1,)),
        )
        rules = [v.rule for v in lint_plan(plan)]
        assert "P003" in rules

    def test_p004_out_of_order_group(self):
        plan = XorPlan(
            code_name="HV",
            p=5,
            op="decode",
            pattern=(8, 9),
            rows=4,
            cols=4,
            steps=(
                XorStep(dst=8, srcs=(0, 1)),
                XorStep(dst=9, srcs=(2, 3)),
            ),
            erased=(8, 9),
            outputs=(8, 9),
            groups=((1, 0),),
        )
        rules = [v.rule for v in lint_plan(plan)]
        assert "P004" in rules

    def test_p004_read_before_any_definition_under_group_order(self):
        """Sequentially valid, but the group's listed order runs the
        reader before its producer — undefined under concurrency."""
        plan = XorPlan(
            code_name="HV",
            p=5,
            op="decode",
            pattern=(8, 9),
            rows=4,
            cols=4,
            steps=(
                XorStep(dst=8, srcs=(0, 1)),
                XorStep(dst=9, srcs=(8, 2)),
            ),
            erased=(8, 9),
            outputs=(8, 9),
            groups=((1, 0),),
        )
        violations = lint_plan(plan)
        assert {v.rule for v in violations} == {"P004"}
        messages = " ".join(v.message for v in violations)
        assert "out" in messages and "defines" in messages


class TestVerifyCodePlans:
    def test_full_hv_report_at_p5(self):
        report = verify_code_plans("HV", 5)
        assert report.key == "HV@5"
        assert report.failed_claims() == []
        by_op = {c.op: c for c in report.ops}
        assert by_op["encode"].patterns_verified == 1
        assert by_op["read"].patterns_verified == 4 + 16  # columns + cells
        assert by_op["recover-double"].patterns_verified == 6
        assert by_op["recover-double"].groups_min == 4
        assert by_op["recover-double"].groups_max == 4

    @pytest.mark.parametrize("name", available_codes())
    def test_every_code_verifies_at_p5(self, name):
        report = verify_code_plans(name, 5)
        assert report.patterns_verified > 0
        assert report.failed_claims() == []

    def test_hv_claims_re_derived_from_plans(self):
        """The paper's numbers fall out of the verified schedules."""
        report = verify_code_plans("HV", 7)
        assert report.claims["plan_update_complexity_matches_chain_model"]
        assert report.claims["plan_recover_double_four_chains"]
        assert report.claims["plan_update_two_parity_writes"]
        assert report.claims["plan_read_one_cell_chain_length_p_minus_2"]

    def test_a_rejected_pattern_is_a_certification_error(self, monkeypatch):
        """Every enumerated pattern is recoverable: one the compiler
        rejects fails the certificate, naming its op and pattern."""
        import repro.static.planverify as planverify

        compile_plan = planverify.compile_plan

        def rejecting(code, op, pattern=(), **kwargs):
            if op == "recover-double" and pattern == (0, 1):
                raise PlanError("injected")
            return compile_plan(code, op, pattern, **kwargs)

        monkeypatch.setattr(planverify, "compile_plan", rejecting)
        with pytest.raises(CertificationError, match=r"recover-double pattern \(0, 1\)"):
            verify_code_plans("HV", 5)

    def test_pattern_families_are_closed_and_deterministic(self, hv5):
        assert plan_patterns(hv5, "encode") == [()]
        reads = plan_patterns(hv5, "read")
        assert len(reads) == hv5.cols + hv5.rows * hv5.cols
        assert _column_read(hv5, 0) in reads and ONE_CELL_READ in reads
        assert len(plan_patterns(hv5, "recover-double")) == 6
        assert plan_patterns(hv5, "update") == plan_patterns(hv5, "update")
        with pytest.raises(CertificationError, match="pattern family"):
            plan_patterns(hv5, "scrub")

    def test_report_hash_is_stable(self):
        a = verify_code_plans("P-Code", 5)
        b = verify_code_plans("P-Code", 5)
        assert a.report_hash == b.report_hash
        assert a.canonical_json() == b.canonical_json()

    def test_primes_cover_the_benchmark_prime(self):
        assert PLAN_VERIFY_PRIMES == (5, 7, 11)


class TestVerifyOnCompile:
    def test_verified_cache_accepts_good_plans(self, hv5):
        cache = PlanCache(verify=True)
        plan = compile_plan(hv5, "recover-double", (1, 3), cache=cache)
        assert plan.op == "recover-double"
        assert len(cache) == 1

    def test_on_store_hook_observes_compiles(self, hv5):
        seen = []
        cache = PlanCache(on_store=lambda key, plan: seen.append(key))
        compile_plan(hv5, "encode", cache=cache)
        compile_plan(hv5, "encode", cache=cache)  # cache hit: no re-store
        assert len(seen) == 1
        assert seen[0][0] == "HV" and seen[0][2] == "encode"

    def test_verify_flag_composes_with_hook(self, hv5):
        seen = []
        cache = PlanCache(verify=True, on_store=lambda k, p: seen.append(p))
        compile_plan(hv5, "update", (hv5.data_positions[0],), cache=cache)
        assert len(seen) == 1
        verify_plan(hv5, seen[0])  # what was stored is what was proven
