"""Compiled ``update`` plans: delta semantics, fallback lanes, crossover.

An update plan runs over a *delta* buffer — dirty data slots hold
``old ⊕ new`` — and leaves each dirtied parity's delta in its own slot;
:func:`apply_update` folds those into live stripes.  The oracle is
:meth:`ArrayCode.update_elements` / :meth:`ArrayCode.apply_parity_deltas`.
"""

import numpy as np
import pytest

from repro.array.iostats import IOStats
from repro.array.stripe import StripeBatch
from repro.codes.registry import get_code
from repro.engine import apply_update, choose_update_strategy, compile_plan, execute_plan
from repro.engine.compile import PlanCache
from repro.exceptions import PlanError

CODES = ["HV", "RDP", "HDP", "X-Code", "H-Code", "EVENODD", "P-Code", "Liberation"]


def _data_slots(code) -> tuple[int, ...]:
    """The data cells as sorted slots: the canonical pattern spelling."""
    return tuple(r * code.cols + c for r, c in code.data_positions)


def _delta_stripe(code, base, news, element_size):
    """Zero stripe with ``old ⊕ new`` in the dirty data slots."""
    delta = code.make_stripe(element_size=element_size)
    for pos, new in news.items():
        delta.set(pos, base.get(pos) ^ new)
    return delta


class TestCompile:
    @pytest.mark.parametrize("name", CODES)
    def test_outputs_are_the_write_targets(self, name):
        code = get_code(name, 5)
        cells = tuple(code.data_positions[:3])
        plan = compile_plan(code, "update", cells)
        got = {divmod(slot, code.cols) for slot in plan.outputs}
        assert got == set().union(*map(code.update_targets, cells))

    def test_pattern_records_the_dirty_cells(self):
        code = get_code("HV", 7)
        cells = tuple(code.data_positions[:2])
        plan = compile_plan(code, "update", cells)
        assert plan.op == "update"
        assert plan.pattern == tuple(
            sorted(r * code.cols + c for r, c in cells)
        )

    @pytest.mark.parametrize("name", [*CODES, "Cauchy-RS"])
    @pytest.mark.parametrize("p", [5, 7])
    def test_indexed_lowering_equals_the_chain_scan(self, name, p):
        """The compiler visits only the chains a dirty cell feeds; the
        reference scans every chain for dirty members, in encode order."""
        code = get_code(name, p)
        slot = lambda pos: pos[0] * code.cols + pos[1]  # noqa: E731
        slots = _data_slots(code)
        for width in (1, 2, 5, len(slots) // 2):
            for start in range(0, len(slots) - width + 1, 3):
                pattern = slots[start : start + width]
                dirty, steps = set(pattern), []
                for chain in code.encode_order:
                    srcs = tuple(sorted(slot(m) for m in chain.members if slot(m) in dirty))
                    if srcs:
                        steps.append((slot(chain.parity), srcs))
                        dirty.add(slot(chain.parity))
                plan = compile_plan(code, "update", pattern, cache=None, cse=False)
                assert [(step.dst, step.srcs) for step in plan.steps] == steps
                assert plan.outputs == plan.erased == tuple(dst for dst, _ in steps)

    def test_empty_update_rejected(self):
        code = get_code("HV", 5)
        with pytest.raises(PlanError):
            compile_plan(code, "update", ())

    def test_parity_cell_rejected(self):
        code = get_code("HV", 5)
        with pytest.raises(PlanError):
            compile_plan(code, "update", (code.parity_positions[0],))


class TestExecution:
    @pytest.mark.parametrize("name", CODES)
    @pytest.mark.parametrize("element_size", [8, 3])  # 3: uint8-lane fallback
    def test_delta_path_matches_oracle(self, name, element_size):
        code = get_code(name, 5)
        rng = np.random.default_rng(7)
        base = code.random_stripe(element_size=element_size, seed=1)
        cells = tuple(code.data_positions[:3])
        news = {
            pos: rng.integers(0, 256, element_size, dtype=np.uint8)
            for pos in cells
        }
        plan = compile_plan(code, "update", cells)

        oracle = base.copy()
        code.update_elements(oracle, {p: b.copy() for p, b in news.items()})

        target = base.copy()
        delta = _delta_stripe(code, base, news, element_size)
        execute_plan(plan, delta)
        for pos, new in news.items():
            target.set(pos, new)
        apply_update(plan, delta, target)
        assert target == oracle

    def test_batch_delta_applies_to_stripe_list(self):
        code = get_code("HV", 7)
        element_size = 16
        cells = tuple(code.data_positions[:2])
        plan = compile_plan(code, "update", cells)
        rng = np.random.default_rng(11)
        bases = [
            code.random_stripe(element_size=element_size, seed=s) for s in (1, 2, 3)
        ]
        oracles, targets = [], []
        delta = StripeBatch(code.rows, code.cols, element_size, len(bases))
        for i, base in enumerate(bases):
            news = {
                pos: rng.integers(0, 256, element_size, dtype=np.uint8)
                for pos in cells
            }
            oracle = base.copy()
            code.update_elements(oracle, {p: b.copy() for p, b in news.items()})
            oracles.append(oracle)
            target = base.copy()
            for pos, new in news.items():
                delta.data[i][pos] = base.get(pos) ^ new
                target.set(pos, new)
            targets.append(target)
        execute_plan(plan, delta)
        apply_update(plan, delta, targets)
        assert targets == oracles

    def test_apply_update_requires_update_plan(self):
        code = get_code("HV", 5)
        encode = compile_plan(code, "encode")
        stripe = code.make_stripe(element_size=8)
        with pytest.raises(PlanError):
            apply_update(encode, stripe, stripe)

    def test_apply_update_lane_mismatch_rejected(self):
        code = get_code("HV", 5)
        plan = compile_plan(code, "update", (code.data_positions[0],))
        delta = StripeBatch(code.rows, code.cols, 8, 2)
        stripes = [code.make_stripe(element_size=8)]  # 1 stripe, 2 lanes
        with pytest.raises(PlanError):
            apply_update(plan, delta, stripes)

    def test_stats_charged_for_execute_and_apply(self):
        code = get_code("HV", 5)
        cells = tuple(code.data_positions[:2])
        plan = compile_plan(code, "update", cells)
        stats = IOStats(code.cols)
        delta = code.make_stripe(element_size=8)
        target = code.make_stripe(element_size=8)
        execute_plan(plan, delta, stats=stats)
        after_execute = stats.kernel_invocations
        assert after_execute == plan.kernel_calls
        apply_update(plan, delta, target, stats=stats)
        assert stats.kernel_invocations == after_execute + len(plan.outputs)


class TestCrossover:
    def test_small_write_prefers_rmw(self):
        code = get_code("HV", 11)
        strategy, plan = choose_update_strategy(
            code, (code.data_positions[0],)
        )
        assert strategy == "rmw"
        assert plan.op == "update"

    def test_mostly_dirty_stripe_prefers_reencode(self):
        code = get_code("HV", 5)
        strategy, plan = choose_update_strategy(
            code, tuple(code.data_positions)
        )
        assert strategy == "reencode"
        assert plan.op == "encode"


class TestUpdatePlanCaching:
    def test_hit_miss_counters(self):
        cache = PlanCache(maxsize=8)
        code = get_code("HV", 5)
        cells = tuple(code.data_positions[:2])
        compile_plan(code, "update", cells, cache=cache)
        compile_plan(code, "update", cells, cache=cache)
        stats = cache.stats()
        assert stats == {"size": 1, "hits": 1, "misses": 1, "evictions": 0}

    def test_eviction_counter(self):
        cache = PlanCache(maxsize=1)
        code = get_code("HV", 5)
        compile_plan(code, "update", (code.data_positions[0],), cache=cache)
        compile_plan(code, "update", (code.data_positions[1],), cache=cache)
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 1


class TestStrategyMemo:
    """``choose_update_strategy`` remembers its decision in the cache:
    a repeated canonical pattern is one lookup, and nothing the cache
    promises about its plans changes."""

    def test_repeat_is_one_hit_and_the_same_objects(self):
        cache = PlanCache(maxsize=8)
        code = get_code("HV", 11)
        pattern = _data_slots(code)[2:5]
        first = choose_update_strategy(code, pattern, cache=cache)
        assert cache.stats() == {"size": 2, "hits": 0, "misses": 2, "evictions": 0}
        again = choose_update_strategy(code, pattern, cache=cache)
        assert again[0] == first[0] == "rmw" and again[1] is first[1]
        assert cache.stats() == {"size": 2, "hits": 1, "misses": 2, "evictions": 0}
        # Any spelling of the same cells reaches the same decision.
        cells = tuple(divmod(slot, code.cols) for slot in reversed(pattern))
        assert choose_update_strategy(code, cells, cache=cache)[1] is first[1]
        assert cache.stats()["misses"] == 2

    def test_decision_matches_an_uncached_one(self):
        cache = PlanCache(maxsize=8)
        code = get_code("HV", 5)
        for cells in ((code.data_positions[0],), tuple(code.data_positions)):
            choose_update_strategy(code, cells, cache=cache)
            strategy, plan = choose_update_strategy(code, cells, cache=cache)
            expected, fresh = choose_update_strategy(code, cells, cache=None)
            assert strategy == expected and plan == fresh

    def test_decision_is_evicted_with_its_plan(self):
        cache = PlanCache(maxsize=2)  # the encode plan and one update plan
        code = get_code("HV", 11)
        a, b = _data_slots(code)[:2]
        for slot in (a, b, a):  # (b,) pushes (a,) out, and back again
            choose_update_strategy(code, (slot,), cache=cache)
        assert cache.stats() == {"size": 2, "hits": 2, "misses": 4, "evictions": 2}
        choose_update_strategy(code, (a,), cache=cache)
        assert cache.stats() == {"size": 2, "hits": 3, "misses": 4, "evictions": 2}

    def test_parity_cells_are_still_refused_on_a_warm_cache(self):
        cache = PlanCache(maxsize=8)
        code = get_code("HV", 5)
        choose_update_strategy(code, (code.data_positions[0],), cache=cache)
        with pytest.raises(PlanError):
            choose_update_strategy(code, (code.parity_positions[0],), cache=cache)

    def test_verify_and_on_store_see_each_compiled_plan_once(self, monkeypatch):
        """Whether a plan is reached through ``compile_plan`` or through
        the remembered decision, it is proven and reported exactly once."""
        from repro.static import planverify

        seen, proven = [], []
        real = planverify.verify_plan

        def counting(code, plan):
            proven.append(plan)
            return real(code, plan)

        monkeypatch.setattr(planverify, "verify_plan", counting)
        cache = PlanCache(verify=True, on_store=lambda key, plan: seen.append(plan))
        code = get_code("HV", 7)
        pattern = _data_slots(code)[2:4]
        direct = compile_plan(code, "update", pattern, cache=cache)
        for _ in range(3):
            _, via_memo = choose_update_strategy(code, pattern, cache=cache)
            assert via_memo is direct
        assert compile_plan(code, "update", pattern, cache=cache) is direct
        assert [p.op for p in seen] == ["update", "encode"]
        assert len(proven) == 2 and all(a is b for a, b in zip(seen, proven))

    def test_threads_share_one_plan_object_and_the_counters_add_up(self):
        import sys
        import threading

        cache = PlanCache(maxsize=64)
        stored = []
        cache.on_store = lambda key, plan: stored.append(key)
        code = get_code("HV", 11)
        slots = _data_slots(code)
        patterns = [slots[s : s + w] for w in (1, 3) for s in range(2, 8)]
        rounds, results, errors = 40, {}, []

        def hammer(worker: int) -> None:
            try:
                got = results[worker] = []
                for _ in range(rounds):
                    for pattern in patterns:
                        got.append(choose_update_strategy(code, pattern, cache=cache))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        for worker in range(1, 4):
            assert all(
                a[0] == b[0] and a[1] is b[1]
                for a, b in zip(results[0], results[worker])
            )
        stats = cache.stats()
        # Every plan the cache holds was stored (and reported) once,
        # even where two threads compiled it at the same moment.
        assert stats["size"] == len(patterns) + 1 == len(stored) == len(set(stored))
        assert stats["evictions"] == 0 and stats["misses"] >= stats["size"]
        calls = 4 * rounds * len(patterns)
        assert calls <= stats["hits"] + stats["misses"] <= 2 * calls
        before = cache.stats()
        for pattern in patterns:
            choose_update_strategy(code, pattern, cache=cache)
        after = cache.stats()
        assert after["hits"] - before["hits"] == len(patterns)
        assert after["misses"] == before["misses"]
