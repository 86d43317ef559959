"""Property-based tests on the recovery planners and write cost model."""

from hypothesis import given, settings, strategies as st

from repro import HVCode, XCode, RDPCode
from repro.core.partial_write import analyze_partial_write
from repro.engine import compile_plan
from repro.recovery.single import degraded_read_choices

code_strategy = st.builds(
    lambda cls, p: cls(p),
    st.sampled_from([HVCode, XCode, RDPCode]),
    st.sampled_from([5, 7]),
)


@settings(max_examples=40, deadline=None)
@given(code=code_strategy, data=st.data())
def test_single_disk_plan_is_executable(code, data):
    """The planned reads always suffice to rebuild the whole disk."""
    disk = data.draw(st.integers(0, code.cols - 1))
    column = [(r, disk) for r in range(code.rows)]
    choices = degraded_read_choices(code, column, (), method="greedy")
    stripe = code.random_stripe(element_size=2, seed=7)
    broken = stripe.copy()
    broken.erase_disks([disk])
    # Execute each choice directly: XOR the chain's other cells.
    for cell, chain in sorted(choices.items()):
        others = [c for c in chain.equation_cells if c != cell]
        assert all(broken.alive(c) for c in others)
        broken.set(cell, broken.xor_of(others))
    assert broken == stripe


@settings(max_examples=40, deadline=None)
@given(code=code_strategy, data=st.data())
def test_degraded_read_plan_bounds(code, data):
    total = code.data_elements_per_stripe
    length = data.draw(st.integers(1, min(10, total)))
    start = data.draw(st.integers(0, total - length))
    disk = data.draw(st.integers(0, code.cols - 1))
    requested = code.data_positions[start : start + length]
    lost = [c for c in requested if c[1] == disk]
    free = [c for c in requested if c[1] != disk]
    # L' is the compiled read plan's reads plus the free cells.
    fetched = set(free)
    if lost:
        column = [(r, disk) for r in range(code.rows)]
        plan = compile_plan(code, "read", (column, lost, free), cache=None)
        fetched |= set(map(plan.position_of, plan.reads))
    # L' is bounded below by the surviving requested cells and above by
    # requested plus one full chain per lost element.
    max_chain = max(chain.length for chain in code.chains)
    assert len(fetched) >= length - len(lost)
    assert len(fetched) <= length + len(lost) * max_chain


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([5, 7, 11]),
    data=st.data(),
)
def test_hv_partial_write_cost_bounds(p, data):
    """Any L-element HV write dirties between 2 and 2L parities."""
    code = HVCode(p)
    total = code.data_elements_per_stripe
    length = data.draw(st.integers(1, total))
    start = data.draw(st.integers(0, total - length))
    analysis = analyze_partial_write(code, start, length)
    assert 2 <= analysis.parity_writes <= 2 * length
    assert analysis.parity_writes <= len(code.parity_positions)
    # Sharing bookkeeping is exhaustive over cross-row pairs.
    cross_pairs = sum(
        1
        for a, b in zip(analysis.data_cells, analysis.data_cells[1:])
        if a[0] != b[0]
    )
    assert cross_pairs == len(analysis.shared_vertical_pairs) + len(
        analysis.unshared_vertical_pairs
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_write_cost_monotone_in_length(data):
    """Extending a write never reduces total induced writes."""
    code = HVCode(7)
    total = code.data_elements_per_stripe
    length = data.draw(st.integers(1, total - 1))
    start = data.draw(st.integers(0, total - length - 1))
    shorter = analyze_partial_write(code, start, length)
    longer = analyze_partial_write(code, start, length + 1)
    assert longer.total_writes >= shorter.total_writes
