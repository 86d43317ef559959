"""The default executor (``execute_plan`` → ``fused``): byte-identity,
batching, stats."""

import numpy as np
import pytest

from repro.array.iostats import IOStats
from repro.array.stripe import StripeBatch
from repro.codes.registry import available_codes, get_code
from repro.engine import compile_plan, execute_plan, execute_plan_scalar
from repro.exceptions import InvalidParameterError, PlanError

XOR_CODES = [n for n in available_codes() if n != "Cauchy-RS"]


def encode_pair(code, element_size=32, seed=7):
    """A reference-encoded stripe and a copy with parity zeroed."""
    ref = code.random_stripe(element_size=element_size, seed=seed)
    work = ref.copy()
    for pos in code.parity_positions:
        work.set(pos, np.zeros(element_size, dtype=np.uint8))
    return ref, work


class TestVectorIdentity:
    @pytest.mark.parametrize("name", XOR_CODES)
    @pytest.mark.parametrize("element_size", [8, 32])
    def test_encode_matches_reference(self, name, element_size):
        code = get_code(name, 5)
        ref, work = encode_pair(code, element_size=element_size)
        execute_plan(compile_plan(code, "encode"), work)
        assert work == ref

    @pytest.mark.parametrize("name", XOR_CODES)
    def test_single_disk_recovery_matches_reference(self, name):
        code = get_code(name, 5)
        for disk in range(code.cols):
            ref = code.random_stripe(element_size=16, seed=disk)
            work = ref.copy()
            work.erase_disks([disk])
            column = tuple(r * code.cols + disk for r in range(code.rows))
            execute_plan(compile_plan(code, "read", (column, column, ())), work)
            assert work == ref
            assert not work.state.any()

    def test_double_disk_recovery_matches_reference(self):
        code = get_code("HV", 7)
        for f1 in range(code.cols):
            for f2 in range(f1 + 1, code.cols):
                ref = code.random_stripe(element_size=16, seed=f1 * 31 + f2)
                work = ref.copy()
                work.erase_disks([f1, f2])
                execute_plan(compile_plan(code, "recover-double", (f1, f2)), work)
                assert work == ref

    def test_odd_element_size_uses_byte_lanes(self):
        # 5 bytes per element cannot be viewed as uint64 words; the
        # executor falls back to uint8 lanes and stays byte-identical.
        code = get_code("HV", 5)
        ref, work = encode_pair(code, element_size=5)
        execute_plan(compile_plan(code, "encode"), work)
        assert work == ref

    def test_scalar_oracle_matches_vector(self):
        code = get_code("RDP", 7)
        ref, vec = encode_pair(code, element_size=24)
        scal = vec.copy()
        execute_plan(compile_plan(code, "encode"), vec)
        execute_plan_scalar(compile_plan(code, "encode"), scal)
        assert vec == ref
        assert scal == ref


class TestBatchTargets:
    def test_stripe_batch_executes_all_lanes(self):
        code = get_code("HV", 5)
        refs, works = zip(*(encode_pair(code, seed=s) for s in range(4)))
        batch = StripeBatch.from_stripes(works)
        execute_plan(compile_plan(code, "encode"), batch)
        for i, ref in enumerate(refs):
            assert batch.stripe(i) == ref

    def test_sequence_of_stripes(self):
        code = get_code("X-Code", 5)
        refs, works = zip(*(encode_pair(code, seed=s) for s in range(3)))
        execute_plan(compile_plan(code, "encode"), list(works))
        for work, ref in zip(works, refs):
            assert work == ref

    def test_batch_recovery_clears_erasures_per_lane(self):
        code = get_code("HV", 5)
        refs = [code.random_stripe(element_size=16, seed=s) for s in range(3)]
        works = [r.copy() for r in refs]
        for w in works:
            w.erase_disks([0, 1])
        batch = StripeBatch.from_stripes(works)
        execute_plan(compile_plan(code, "recover-double", (0, 1)), batch)
        assert not batch.state.any()
        for i, ref in enumerate(refs):
            assert batch.stripe(i) == ref


class TestStatsAndWorkers:
    def test_records_word_xors_and_kernels(self):
        code = get_code("HV", 5)
        plan = compile_plan(code, "encode")
        _, work = encode_pair(code, element_size=64)
        stats = IOStats(code.cols)
        execute_plan(plan, work, stats=stats)
        assert stats.xor_words == plan.xors_per_word * work.words_per_element
        assert stats.kernel_invocations == plan.fused_kernel_calls

    def test_byte_lane_stats_normalize_to_words(self):
        code = get_code("HV", 5)
        plan = compile_plan(code, "encode")
        _, wide = encode_pair(code, element_size=64)
        _, odd = encode_pair(code, element_size=63)
        for_words, for_bytes = IOStats(code.cols), IOStats(code.cols)
        execute_plan(plan, wide, stats=for_words)
        execute_plan(plan, odd, stats=for_bytes)
        # 63 uint8 lanes ≈ 7.875 words, floored per kernel call
        assert 0 < for_bytes.xor_words <= for_words.xor_words

    def test_batch_stats_scale_with_lanes(self):
        code = get_code("HV", 5)
        plan = compile_plan(code, "encode")
        _, one = encode_pair(code, element_size=64)
        batch = StripeBatch.from_stripes(
            [encode_pair(code, element_size=64, seed=s)[1] for s in range(4)]
        )
        single, batched = IOStats(code.cols), IOStats(code.cols)
        execute_plan(plan, one, stats=single)
        execute_plan(plan, batch, stats=batched)
        assert batched.xor_words == 4 * single.xor_words


class TestGuards:
    def test_rejects_geometry_mismatch(self):
        plan = compile_plan(get_code("HV", 7), "encode")
        wrong = get_code("HV", 5).make_stripe(16)
        with pytest.raises(PlanError, match="cannot run on"):
            execute_plan(plan, wrong)

    def test_rejects_non_stripe_targets(self):
        plan = compile_plan(get_code("HV", 5), "encode")
        with pytest.raises(InvalidParameterError):
            execute_plan(plan, np.zeros((4, 5, 16), dtype=np.uint8))

    def test_scalar_oracle_rejects_geometry_mismatch(self):
        plan = compile_plan(get_code("HV", 7), "encode")
        wrong = get_code("HV", 5).make_stripe(16)
        with pytest.raises(PlanError, match="cannot run on"):
            execute_plan_scalar(plan, wrong)
