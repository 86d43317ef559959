"""The plan compiler: per-op lowering, CSE, and the LRU plan cache."""

import numpy as np
import pytest

from repro.codes.registry import available_codes, get_code
from repro.engine import (
    MAX_CSE_TEMPS,
    PLAN_CACHE,
    PlanCache,
    XorPlan,
    XorStep,
    compile_plan,
    eliminate_common_pairs,
)
from repro.engine.backends import get_backend
from repro.engine.compile import _canonical_pattern, _spelled_canonically, plan_key
from repro.exceptions import InvalidParameterError, PlanError, UnrecoverableFailureError
from repro.recovery.single import degraded_read_choices
from repro.static.planverify import plan_patterns

XOR_CODES = [n for n in available_codes() if n != "Cauchy-RS"]
DECODE_ENGINES = ["python", "fused"] + (["native"] if get_backend("native").available() else [])


@pytest.fixture()
def cache():
    return PlanCache(maxsize=8)


class TestCompileEncode:
    @pytest.mark.parametrize("name", available_codes())
    @pytest.mark.parametrize("p", [5, 7])
    def test_every_code_compiles_a_valid_encode_plan(self, name, p, cache):
        code = get_code(name, p)
        plan = compile_plan(code, "encode", cache=cache)
        plan.validate()
        assert plan.op == "encode"
        assert set(plan.outputs) == {
            r * code.cols + c for (r, c) in code.parity_positions
        }
        assert plan.rounds >= 1

    def test_encode_rounds_is_dependency_depth(self):
        # RDP's diagonal parity reads the row-parity column, so encode
        # cannot be a single parallel round; HV's two parities are
        # independent and stay at depth one.
        assert compile_plan(get_code("RDP", 7), "encode", cache=None).rounds == 2
        assert compile_plan(get_code("HV", 7), "encode", cache=None).rounds == 1


def column_of(code, disk):
    return tuple(r * code.cols + disk for r in range(code.rows))


class TestCompileRecovery:
    @pytest.mark.parametrize("name", XOR_CODES)
    def test_single_disk_plans_are_one_round(self, name, cache):
        code = get_code(name, 7)
        for disk in range(code.cols):
            column = column_of(code, disk)
            plan = compile_plan(code, "read", (column, column, ()), cache=cache)
            assert plan.rounds == 1
            assert plan.outputs == column
            # every lost element is repaired independently, at depth one
            assert all(plan.depths[slot] == 1 for slot in plan.outputs)

    @pytest.mark.parametrize("name", available_codes())
    @pytest.mark.parametrize("p", [5, 7])
    def test_whole_column_read_is_recover_single(self, name, p):
        # A single-disk recovery is the ``read`` of the whole column:
        # one step per lost cell XORing the rest of the chain Fig. 9's
        # planner chose for it, so the plan reads exactly those chains.
        code = get_code(name, p)
        for disk in range(code.cols):
            column = column_of(code, disk)
            read = compile_plan(code, "read", (column, column, ()), cse=False, cache=None)
            choices = degraded_read_choices(
                code, [divmod(s, code.cols) for s in column], (), method="greedy"
            )
            assert [divmod(step.dst, code.cols) for step in read.steps] == sorted(choices)
            chained = set()
            for step in read.steps:
                cell = divmod(step.dst, code.cols)
                others = choices[cell].equation_cells - {cell}
                assert {divmod(s, code.cols) for s in step.srcs} == others
                chained |= others
            assert {divmod(s, code.cols) for s in read.reads} == chained

    def test_hv_double_recovery_keeps_four_chains(self):
        code = get_code("HV", 7)
        plan = compile_plan(code, "recover-double", (0, 1), cache=None, cse=False)
        assert len(plan.groups) == 4
        assert plan.rounds == max(len(g) for g in plan.groups)

    @pytest.mark.parametrize("name", available_codes())
    @pytest.mark.parametrize("p", [5, 7])
    def test_groups_are_dependency_components(self, name, p):
        # Every recover-double and update plan's groups partition the
        # steps after the preamble, and each group is weakly connected
        # through the slots its steps write and read.
        code = get_code(name, p)
        for op in ("recover-double", "update"):
            for pattern in plan_patterns(code, op):
                plan = compile_plan(code, op, pattern, cache=None)
                flat = sorted(i for group in plan.groups for i in group)
                assert flat == list(range(plan.preamble, len(plan.steps)))
                for group in plan.groups:
                    reached, frontier = {group[0]}, [group[0]]
                    while frontier:
                        a = plan.steps[frontier.pop()]
                        for i in set(group) - reached:
                            b = plan.steps[i]
                            if a.dst in b.srcs or b.dst in a.srcs:
                                reached.add(i)
                                frontier.append(i)
                    assert reached == set(group), (op, pattern, group)

    def test_double_recovery_pattern_is_order_insensitive(self, cache):
        code = get_code("HV", 5)
        a = compile_plan(code, "recover-double", (3, 1), cache=cache)
        b = compile_plan(code, "recover-double", (1, 3), cache=cache)
        assert a is b  # canonicalized to the same cache entry

    def test_one_cell_read_accepts_positions(self, cache):
        code = get_code("RDP", 5)
        plan = compile_plan(code, "read", (((0, 0),), ((0, 0),), ()), cache=cache)
        assert plan.pattern == ((0,), (0,), ())
        assert plan.outputs == (0,)
        assert len(plan.steps) == 1

    def test_rejects_malformed_patterns(self):
        code = get_code("HV", 5)
        with pytest.raises(PlanError):
            compile_plan(code, "encode", (0,), cache=None)
        with pytest.raises(PlanError):
            compile_plan(code, "recover-double", (2, 2), cache=None)
        with pytest.raises(PlanError):
            compile_plan(code, "recover-double", (0, 99), cache=None)
        for removed in ("bogus-op", "recover-single", "reconstruct"):
            with pytest.raises(PlanError):
                compile_plan(code, removed, (0,), cache=None)


class TestCapabilityOracle:
    """Elimination finishes what peeling cannot, so a ``decode`` plan
    exists exactly for the patterns the code can recover, and every
    engine decodes them to the same bytes."""

    PATTERNS = 200  # per code and prime

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("name", available_codes())
    def test_plan_iff_recoverable(self, name, p):
        code = get_code(name, p)
        rng = np.random.default_rng(p * 1009 + available_codes().index(name))
        cells = code.rows * code.cols
        whole = code.random_stripe(element_size=16, seed=p)
        recoverable = 0
        for _ in range(self.PATTERNS):
            size = int(rng.integers(1, 2 * code.rows + 3))
            slots = tuple(sorted(rng.choice(cells, size, replace=False).tolist()))
            erased = [divmod(s, code.cols) for s in slots]
            try:
                plan = compile_plan(code, "decode", slots, cache=None)
            except PlanError:
                plan = None
            assert (plan is not None) == code.can_recover(erased), slots
            recoverable += plan is not None
            outcomes = []
            for engine in DECODE_ENGINES:
                stripe = whole.copy()
                for pos in erased:
                    stripe.erase(pos)
                try:  # any other exception, PlanError included, fails here
                    code.decode(stripe, engine=engine)
                except UnrecoverableFailureError:
                    outcomes.append("unrecoverable")
                else:
                    assert stripe == whole, (engine, slots)
                    outcomes.append("decoded")
            assert outcomes == ["decoded" if plan else "unrecoverable"] * len(
                DECODE_ENGINES
            ), slots
        # the draw covers both sides of the capability line
        assert 0 < recoverable < self.PATTERNS


class TestCSE:
    def _plan(self, steps, cols=4, **kwargs):
        return XorPlan(
            code_name="T",
            p=5,
            op="encode",
            pattern=(),
            rows=2,
            cols=cols,
            steps=tuple(steps),
            **kwargs,
        )

    def test_hoists_a_repeated_pair(self):
        plan = self._plan(
            [
                XorStep(6, (0, 1, 2)),
                XorStep(7, (0, 1, 3)),
            ],
            outputs=(6, 7),
        )
        out = eliminate_common_pairs(plan)
        assert out.num_temps == 1
        temp = out.num_cells
        assert out.steps[0] == XorStep(temp, (0, 1))
        assert out.steps[1].srcs == (2, temp)
        assert out.steps[2].srcs == (3, temp)
        assert out.xors_per_word < plan.xors_per_word

    def test_noop_when_nothing_repeats(self):
        plan = self._plan([XorStep(6, (0, 1)), XorStep(7, (2, 3))])
        assert eliminate_common_pairs(plan) is plan

    def test_respects_temp_budget(self):
        plan = self._plan(
            [
                XorStep(6, (0, 1, 2)),
                XorStep(7, (0, 1, 3)),
            ],
            outputs=(6, 7),
        )
        assert eliminate_common_pairs(plan, max_temps=0) is plan
        assert MAX_CSE_TEMPS > 0

    def test_preserves_groups_with_preamble(self):
        plan = self._plan(
            [
                XorStep(6, (0, 1, 2)),
                XorStep(7, (0, 1, 3)),
            ],
            outputs=(6, 7),
            groups=((0,), (1,)),
        )
        out = eliminate_common_pairs(plan)
        assert out.num_temps == 1
        assert out.preamble == 1  # the hoisted temp runs first
        assert out.groups == ((1,), (2,))
        out.validate()

    def test_cse_output_stays_topological_for_every_code(self):
        for name in XOR_CODES:
            code = get_code(name, 7)
            plan = compile_plan(code, "encode", cache=None, cse=True)
            plan.validate()

    def test_evenodd_factors_the_adjuster(self):
        # Every EVENODD diagonal chain XORs the same S diagonal; CSE
        # must collapse that shared suffix into one temp.
        code = get_code("EVENODD", 7)
        raw = compile_plan(code, "encode", cache=None, cse=False)
        opt = compile_plan(code, "encode", cache=None, cse=True)
        assert opt.num_temps >= 1
        assert opt.xors_per_word < raw.xors_per_word


class TestPlanCache:
    def test_hit_returns_same_object(self, cache):
        code = get_code("HV", 5)
        a = compile_plan(code, "encode", cache=cache)
        b = compile_plan(code, "encode", cache=cache)
        assert a is b
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_distinct_keys_do_not_collide(self, cache):
        hv = get_code("HV", 5)
        rdp = get_code("RDP", 5)
        a = compile_plan(hv, "encode", cache=cache)
        b = compile_plan(rdp, "encode", cache=cache)
        c = compile_plan(hv, "encode", cache=cache, cse=False)
        assert len({id(a), id(b), id(c)}) == 3

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        code = get_code("HV", 5)
        compile_plan(code, "recover-double", (0, 1), cache=cache)
        compile_plan(code, "recover-double", (0, 2), cache=cache)
        compile_plan(code, "recover-double", (0, 1), cache=cache)  # refresh (0, 1)
        compile_plan(code, "recover-double", (0, 3), cache=cache)  # evicts (0, 2)
        assert cache.stats()["evictions"] == 1
        assert plan_key(code, "recover-double", (0, 1)) in cache
        assert plan_key(code, "recover-double", (0, 2)) not in cache

    @pytest.mark.parametrize(
        "op", ["encode", "decode", "update", "recover-double", "sliced-read", "column-read"]
    )
    def test_planner_keys_only_a_lone_column_read(self, op):
        code = get_code("HV", 5)
        cols = code.cols
        a, b = code.data_positions[0], code.data_positions[-1]
        sa, sb = a[0] * cols + a[1], b[0] * cols + b[1]
        column = column_of(code, 1)
        pattern = {
            "encode": (),
            "decode": (sa, sb),
            "update": (sa, sb),
            "recover-double": (0, 1),
            "sliced-read": ((sa, sb), (sa,), ()),
            "column-read": (column, column, ()),
        }[op]
        kind = op.split("-")[-1] if op.endswith("read") else op
        cache = PlanCache(maxsize=64)
        greedy = compile_plan(code, kind, pattern, cache=cache)
        before = cache.stats()
        milp = compile_plan(code, kind, pattern, planner="milp", cache=cache)
        entries = sum(1 for key in cache._plans if key[2] == kind)
        if op == "column-read":
            assert entries == 2  # the planner chose its chains
            assert milp is not greedy
        else:
            assert entries == 1
            assert milp is greedy
            after = cache.stats()
            assert (after["hits"] - before["hits"], after["misses"]) == (1, before["misses"])

    def test_same_name_and_p_different_geometry_do_not_collide(self, cache):
        # Cauchy-RS reports its auto-chosen word size as p: 4 for both.
        a, b = get_code("Cauchy-RS", 7), get_code("Cauchy-RS", 11)
        assert (a.name, a.p) == (b.name, b.p)
        plan_a = compile_plan(a, "encode", cache=cache)
        plan_b = compile_plan(b, "encode", cache=cache)
        assert (plan_a.cols, plan_b.cols) == (a.cols, b.cols) == (9, 13)
        stripe = b.random_stripe(element_size=16, seed=0)
        compile_plan(a, "encode")  # the order that poisoned the shared cache
        b.encode(stripe, engine="fused")
        assert b.verify(stripe)

    def test_clear_resets_counters(self, cache):
        code = get_code("HV", 5)
        compile_plan(code, "encode", cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"size": 0, "hits": 0, "misses": 0, "evictions": 0}

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(InvalidParameterError):
            PlanCache(maxsize=0)

    def test_cache_none_bypasses_the_default(self):
        code = get_code("HV", 5)
        before = PLAN_CACHE.stats()["misses"]
        compile_plan(code, "encode", cache=None)
        assert PLAN_CACHE.stats()["misses"] == before


# -- the canonical-key probe ------------------------------------------------------

#: Every registered code at p = 5, and the benchmark's HV@11.
PROBED_CODES = [(name, 5) for name in available_codes()] + [("HV", 11)]


def spellings(code):
    """``(op, canonical pattern, other spellings of it)`` for each op."""
    cols = code.cols
    a, b = code.data_positions[0], code.data_positions[-1]
    sa, sb = a[0] * cols + a[1], b[0] * cols + b[1]
    column = tuple(range(1, code.rows * cols, cols))
    wanted = column[1]
    free = tuple(r * cols + c for r, c in code.data_positions[:3] if c != 1)
    return [
        ("encode", (), [[]]),
        ("recover-double", (0, cols - 1), [(cols - 1, 0), [cols - 1, 0]]),
        ("decode", (sa, sb), [(sb, sa), [sb, sa, sb], (b, a), [list(a), sb]]),
        ("update", (sa, sb), [(sb, sa), [sa, sb], (a, b), [b, sa, a]]),
        (
            "read",
            (column, (wanted,), free),
            [
                [list(column), [wanted], list(free)],
                (column[::-1], (wanted, wanted), free[::-1]),
                (
                    tuple(divmod(s, cols) for s in column),
                    (divmod(wanted, cols),),
                    tuple(divmod(s, cols) for s in free),
                ),
            ],
        ),
    ]


class TestCanonicalProbe:
    @pytest.mark.parametrize("name, p", PROBED_CODES)
    def test_store_keys_are_canonical_fixed_points(self, name, p):
        from ..test_array.test_degraded_path import drive, filled_store

        code = get_code(name, p)
        drive(filled_store(code, "auto"))
        keys = [
            key
            for key in list(PLAN_CACHE._plans)
            if key[:2] == (code.name, code.p) and key[6:] == (code.rows, code.cols)
        ]
        assert {key[2] for key in keys} >= {"update", "read"}
        for key in keys:
            pattern = key[3]
            canonical = _canonical_pattern(code, key[2], pattern)
            # equal, and spelled alike: no bool or float passes for an int
            assert (canonical, repr(canonical)) == (pattern, repr(pattern))

    @pytest.mark.parametrize("name, p", PROBED_CODES)
    def test_every_spelling_returns_the_same_plan_for_one_count(self, name, p):
        code = get_code(name, p)
        cache = PlanCache(maxsize=64)
        for op, canonical, others in spellings(code):
            size = len(cache)
            try:
                plan = compile_plan(code, op, canonical, cache=cache)
            except PlanError:
                for other in others:
                    with pytest.raises(PlanError):
                        compile_plan(code, op, other, cache=cache)
                continue
            assert plan.pattern == canonical
            for spelling in [canonical, *others]:
                before = cache.stats()
                assert compile_plan(code, op, spelling, cache=cache) is plan
                after = cache.stats()
                assert after["hits"] - before["hits"] == 1
                assert after["misses"] == before["misses"]
            # one entry per op (a read may have compiled its decode too)
            assert len(cache) - size in ((1, 2) if op == "read" else (1,))

    def test_a_cold_probe_counts_one_miss(self, cache):
        code = get_code("HV", 5)
        column = column_of(code, 2)
        compile_plan(code, "read", (column, column, ()), cache=cache)
        assert cache.stats()["hits"] + cache.stats()["misses"] == 1
        compile_plan(code, "recover-double", (3, 1), cache=cache)  # not canonical
        assert cache.stats() == {"size": 2, "hits": 0, "misses": 2, "evictions": 0}

    @pytest.mark.parametrize("name, p", PROBED_CODES)
    def test_verify_and_on_store_see_each_compiled_plan_once(self, name, p, monkeypatch):
        import repro.static.planverify as planverify

        verified = []
        verify_plan = planverify.verify_plan

        def counting(code, plan):
            verified.append(plan)
            return verify_plan(code, plan)

        monkeypatch.setattr(planverify, "verify_plan", counting)
        stored = []
        cache = PlanCache(maxsize=64, verify=True, on_store=lambda key, plan: stored.append(key))
        code = get_code(name, p)
        for _ in range(2):
            for op, canonical, others in spellings(code):
                for spelling in [canonical, *others]:
                    try:
                        compile_plan(code, op, spelling, cache=cache)
                    except PlanError:
                        pass
        assert len(stored) == len(set(stored)) == len(cache)
        assert set(stored) == set(cache._plans)
        assert len(verified) == len(stored)


class TestPatternValidation:
    @pytest.mark.parametrize("bad", [True, 1.0, np.int64(1)], ids=repr)
    def test_only_exact_ints_are_probed(self, bad, cache):
        """Equal to ``1`` and hashing alike, ``bad`` would find the plan
        of ``1`` under its key; spelled anywhere in a pattern, the probe
        is never asked: ``True`` and ``1.0`` are refused, ``np.int64(1)``
        is canonicalised first."""
        code = get_code("RDP", 5)  # 4 x 6: slot 1 is data, disk 1 is slots 1, 7, 13, 19
        column = (1, 7, 13, 19)
        cases = [
            ("update", (0, 1), (0, bad)),
            ("update", (1, 2), (bad, 2)),
            ("read", (column, (1,), (0,)), (column, (bad,), (0,))),
            ("read", (column, (1,), (0,)), ((bad, *column[1:]), (1,), (0,))),
        ]
        for op, canonical, spelling in cases:
            assert _spelled_canonically(canonical)
            assert not _spelled_canonically(spelling)
            plan = compile_plan(code, op, canonical, cache=cache)
            if type(bad) is np.int64:
                assert compile_plan(code, op, spelling, cache=cache) is plan
            else:
                with pytest.raises(PlanError):
                    compile_plan(code, op, spelling, cache=cache)
        for other in [((1,), (2,)), ((1,), 2, (3,)), [1, 3], (1, (3,))]:
            assert not _spelled_canonically(other)

    def test_decode_patterns_are_sets(self, cache):
        code = get_code("HV", 5)
        single = compile_plan(code, "decode", (3,), cache=cache)
        assert compile_plan(code, "decode", (3, 3), cache=cache) is single
        pair = compile_plan(code, "decode", (0, 3), cache=cache)
        assert compile_plan(code, "decode", ((0, 3), (0, 3)), cache=cache) is single
        assert compile_plan(code, "decode", (3, 0, 3), cache=cache) is pair
        assert single.erased == (3,)
        assert len(cache) == 2

    #: ``(op, malformed pattern, the int pattern it equals or None)``
    MALFORMED = [
        ("encode", (0,), None),
        ("encode", (None,), None),
        ("recover-double", (0, 1.0), (0, 1)),
        ("recover-double", (False, 1), (0, 1)),
        ("recover-double", (0, None), None),
        ("recover-double", (0,), None),
        ("recover-double", (0, 1, 2), None),
        ("decode", [3, 3.0], None),
        ("decode", (3.0,), (3,)),
        ("decode", (True,), (1,)),
        ("decode", [None], None),
        ("decode", ["ab"], None),
        ("decode", [(0, 1, 2)], None),
        ("decode", [(0.0, 3)], None),
        ("decode", 3, None),
        ("update", (0.0,), (0,)),
        ("update", (False,), (0,)),
        ("update", [(0, True)], None),
        ("update", [None], None),
        ("read", ((1,), (1.0,), ()), ((1,), (1,), ())),
        ("read", ((1,), (True,), ()), ((1,), (1,), ())),
        ("read", ((1,), (1,), (None,)), None),
        ("read", ((1,), (1,)), None),
        ("read", (1, 1, 1), None),
    ]

    @pytest.mark.parametrize(
        "op, pattern, equal",
        MALFORMED,
        ids=[f"{op}-{pattern!r}" for op, pattern, _ in MALFORMED],
    )
    def test_malformed_cell_or_disk_is_a_plan_error(self, op, pattern, equal, cache):
        code = get_code("HV", 5)
        with pytest.raises(PlanError):
            compile_plan(code, op, pattern, cache=None)
        if equal is not None:
            # with the int pattern it equals cached, the probe must not
            # answer for it either
            compile_plan(code, op, equal, cache=cache)
        with pytest.raises(PlanError):
            compile_plan(code, op, pattern, cache=cache)
        for key in cache._plans:
            assert repr(key[3]) == repr(_canonical_pattern(code, key[2], key[3]))
