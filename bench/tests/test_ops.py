"""Op lists are a pure function of the seed, and a fixed point."""

import numpy as np
import pytest

from bench.ops import ByteModel, partial_write_mix, zipf_ops
from bench.workloads import WORKLOADS

#: SHA-256 of each workload's seed-0 op list.  A change here is a new
#: benchmark: numbers from before and after must not be compared.
SEED0 = {
    "serve-zipf": "83435dec2611a49499222c7b53e80565150d5851faee2d85a3c96023cff5cc93",
    "store-write": "060f742d6845d264b1f11e9d998593bb9598415993fc8be299dc18c578c22e1f",
    "store-degraded": "d2c4568661702bf20221397a9d492a2d057b44544be23fd699f441daf1221279",
    "engine-batch": "a26b980a7a46d61de4c42ed4d4af5319579f8043099c195634e0e7324a7df7a0",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_hash_is_pinned_and_seed_1_differs(name):
    assert WORKLOADS[name](0).ops_sha256 == SEED0[name]
    assert WORKLOADS[name](0).ops_sha256 == WORKLOADS[name](0).ops_sha256
    assert WORKLOADS[name](1).ops_sha256 != SEED0[name]


def test_partial_write_mix_shares_are_exact():
    ops = partial_write_mix(
        np.random.default_rng(5), 1000, elements=2000, element_size=4096, write_share=0.8
    )
    runs = [op.size // 4096 if op.size % 4096 == 0 and op.size > 4096 else 0 for op in ops]
    assert (runs.count(0), runs.count(10), runs.count(30)) == (600, 200, 200)
    assert sum(op.payload is not None for op in ops) == 800
    for op in ops:
        assert 0 <= op.offset and op.offset + op.size <= 2000 * 4096
        if op.size <= 4096:  # sub-element ops stay inside one element
            assert op.offset // 4096 == (op.offset + op.size - 1) // 4096


def test_zipf_ops_stay_inside_one_stripe():
    ops = zipf_ops(
        np.random.default_rng(5), 2000, stripes=64, groups=2, stripe_bytes=80 * 4096,
        skew=1.2, write_share=0.5, max_bytes=4096,
    )
    assert sum(op.payload is not None for op in ops) == 1000
    for op in ops:
        assert op.offset // (80 * 4096) == (op.offset + op.size - 1) // (80 * 4096)
    hottest = np.bincount([op.offset // (80 * 4096) for op in ops], minlength=64).max()
    assert hottest > 2000 / 64 * 5  # skewed, not uniform


def test_model_reaches_a_fixed_point_after_one_replay():
    ops = zipf_ops(
        np.random.default_rng(9), 500, stripes=4, groups=2, stripe_bytes=8192,
        skew=1.2, write_share=0.5, max_bytes=4096,
    )
    model = ByteModel(4 * 8192)
    crcs = model.settle(ops)
    settled = bytes(model.buf)
    assert [model.apply(op) for op in ops] == crcs
    assert bytes(model.buf) == settled
    assert [c is None for c in crcs] == [op.payload is not None for op in ops]
