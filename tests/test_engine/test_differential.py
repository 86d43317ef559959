"""Differential proof: the vectorized numpy engine is byte-identical to
pure Python.

``fused`` is the one numpy backend (the ``vector`` tests name it).
Hypothesis drives every registered code, both evaluation primes, random
data, and random erasure patterns through both execution paths and
demands bit-exact agreement.  The pure-Python decoder is the oracle —
any schedule the compiler produces must reproduce it exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CauchyRSCode,
    EvenOddCode,
    HCode,
    HDPCode,
    HVCode,
    LiberationCode,
    PCode,
    RDPCode,
    XCode,
)
from repro.array.filestore import FileStore
from repro.codes.registry import get_code
from repro.core.recovery import plan_double_failure_recovery
from repro.engine import compile_plan, execute_plan, execute_plan_scalar
from repro.exceptions import PlanError
from repro.recovery.single import degraded_read_choices
from repro.utils import pairs

CODE_CLASSES = [
    HVCode,
    RDPCode,
    XCode,
    HDPCode,
    HCode,
    EvenOddCode,
    PCode,
    LiberationCode,
    CauchyRSCode,
]

code_strategy = st.builds(
    lambda cls, p: cls(p),
    st.sampled_from(CODE_CLASSES),
    st.sampled_from([5, 7]),
)

xor_code_strategy = st.builds(
    lambda cls, p: cls(p),
    st.sampled_from([c for c in CODE_CLASSES if c is not CauchyRSCode]),
    st.sampled_from([5, 7]),
)


@settings(max_examples=60, deadline=None)
@given(
    code=code_strategy,
    seed=st.integers(min_value=0, max_value=2**31),
    element_size=st.sampled_from([3, 8, 16]),
)
def test_vector_encode_matches_python(code, seed, element_size):
    stripe = code.random_stripe(element_size=element_size, seed=seed)
    redone = stripe.copy()
    for pos in code.parity_positions:
        redone.set(pos, np.zeros(element_size, dtype=np.uint8))
    code.encode(redone, engine="fused")
    assert redone == stripe


@settings(max_examples=60, deadline=None)
@given(
    code=code_strategy,
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_vector_double_decode_matches_python(code, seed, data):
    stripe = code.random_stripe(element_size=8, seed=seed)
    f1 = data.draw(st.integers(0, code.cols - 1))
    f2 = data.draw(st.integers(0, code.cols - 1).filter(lambda x: x != f1))
    via_python, via_fused = stripe.copy(), stripe.copy()
    code.decode(via_python, failed_disks=[f1, f2])
    code.decode(via_fused, failed_disks=[f1, f2], engine="fused")
    assert via_python == stripe
    assert via_fused == stripe


@settings(max_examples=60, deadline=None)
@given(
    code=code_strategy,
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_vector_random_erasures_match_python(code, seed, data):
    """Any recoverable cell pattern decodes identically on both engines."""
    stripe = code.random_stripe(element_size=8, seed=seed)
    cells = sorted(code.layout)
    k = data.draw(st.integers(0, min(6, len(cells))))
    erased = data.draw(
        st.lists(st.sampled_from(cells), min_size=k, max_size=k, unique=True)
    )
    if not code.can_recover(erased):
        return
    via_python, via_fused = stripe.copy(), stripe.copy()
    for pos in erased:
        via_python.erase(pos)
        via_fused.erase(pos)
    code.decode(via_python)
    code.decode(via_fused, engine="fused")
    assert via_python == stripe
    assert via_fused == stripe


@settings(max_examples=40, deadline=None)
@given(
    code=xor_code_strategy,
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_vector_and_scalar_executor_agree_on_raw_plans(code, seed, data):
    """Below the decode API: the same XorPlan run word-wide and word-by-word."""
    f1 = data.draw(st.integers(0, code.cols - 1))
    f2 = data.draw(st.integers(0, code.cols - 1).filter(lambda x: x != f1))
    try:
        plan = compile_plan(code, "recover-double", (f1, f2))
    except PlanError:
        return  # Gaussian-only pattern; nothing to compare
    stripe = code.random_stripe(element_size=8, seed=seed)
    vec, scal = stripe.copy(), stripe.copy()
    vec.erase_disks([f1, f2])
    scal.erase_disks([f1, f2])
    execute_plan(plan, vec)
    execute_plan_scalar(plan, scal)
    assert vec == stripe
    assert scal == stripe


class TestRecoveryPlanWiring:
    @settings(max_examples=20, deadline=None)
    @given(
        code=xor_code_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_single_disk_plan_engines_agree(self, code, seed, data):
        disk = data.draw(st.integers(0, code.cols - 1))
        column = [(r, disk) for r in range(code.rows)]
        plan = compile_plan(code, "read", (column, column, ()), cache=None)
        stripe = code.random_stripe(element_size=8, seed=seed)
        vec, py = stripe.copy(), stripe.copy()
        vec.erase_disks([disk])
        py.erase_disks([disk])
        execute_plan(plan, vec)
        # the planner's chains, walked one at a time
        for cell, chain in sorted(degraded_read_choices(code, column, (), "greedy").items()):
            py.set(cell, py.xor_of([c for c in chain.equation_cells if c != cell]))
        assert vec == stripe
        assert py == stripe

    def test_hv_double_failure_plan_vector_with_four_chain_groups(self):
        """Algorithm 1 is the oracle of the generic peel: on every disk
        pair, the compiled plan's groups are its four chains, in its
        order, step for step, its depth is their longest chain, and the
        CSE'd plan runs correctly."""
        for p in (5, 7, 11, 13):
            code = get_code("HV", p)
            slot = lambda pos: pos[0] * code.cols + pos[1]  # noqa: E731
            for f1, f2 in pairs(code.cols):
                algo = plan_double_failure_recovery(code, f1, f2)
                plan = compile_plan(code, "recover-double", (f1, f2), cse=False, cache=None)
                chains = [
                    [
                        (slot(pos), sorted(slot(c) for c in chain.equation_cells if c != pos))
                        for pos, chain in steps
                    ]
                    for steps in algo.chains
                ]
                groups = [
                    [(plan.steps[i].dst, list(plan.steps[i].srcs)) for i in group]
                    for group in plan.groups
                ]
                assert groups == chains, (p, f1, f2)
                assert plan.rounds == algo.longest_chain
                compiled = compile_plan(code, "recover-double", (f1, f2))
                stripe = code.random_stripe(element_size=16, seed=f1 * 13 + f2)
                broken = stripe.copy()
                broken.erase_disks([f1, f2])
                execute_plan(compiled, broken)
                assert broken == stripe


class TestArrayWiring:
    def test_filestore_vector_roundtrip_with_failure(self):
        code = get_code("HV", 7)
        store = FileStore(code, element_size=64, engine="fused")
        payload = bytes(range(256)) * 4
        store.write(0, payload)
        store.fail_disk(2)
        assert store.read(0, len(payload)) == payload
        store.rebuild(2)
        assert store.read(0, len(payload)) == payload

    def test_filestore_engines_store_identical_bytes(self):
        code = get_code("RDP", 5)
        payload = bytes((i * 37) % 256 for i in range(500))
        stores = {
            name: FileStore(code, element_size=32, engine=name)
            for name in ("python", "fused")
        }
        for store in stores.values():
            store.write(0, payload)
        for a, b in zip(stores["python"].stripes, stores["fused"].stripes):
            assert a == b
