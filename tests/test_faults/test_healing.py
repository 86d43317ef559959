"""Tests for the self-healing escalation ladder."""

import numpy as np
import pytest

from repro import HVCode, RDPCode
from repro.array.filestore import FileStore
from repro.codes.base import ArrayCode
from repro.codes.evenodd import EvenOddCode
from repro.codes.registry import get_code
from repro.engine.compile import compile_plan
from repro.exceptions import UnrecoverableFaultError
from repro.faults import (
    HealingStats,
    RebuildOrchestrator,
    decode_resilient,
    recover_element,
)


def encoded_stripe(code, element_size=16, seed=5):
    stripe = code.random_stripe(element_size=element_size, seed=seed)
    code.encode(stripe)
    return stripe


def poison_chains(code, stripe, pos):
    """One latent member on every chain through ``pos``."""
    chains = list(code.chains_through[pos])
    if pos in code.chain_at:
        chains.append(code.chain_at[pos])
    for chain in chains:
        victim = next(c for c in chain.equation_cells if c != pos)
        if stripe.readable(victim):
            stripe.mark_latent(victim)


class TestRecoverElement:
    def test_rung1_direct_read(self):
        code = HVCode(5)
        stripe = encoded_stripe(code)
        stats = HealingStats()
        buf = recover_element(code, stripe, (0, 0), stats)
        assert bytes(buf) == bytes(stripe.get((0, 0)))
        assert stats.reads == 1
        assert stats.chain_repairs == 0

    def test_rung1_returns_a_copy(self):
        code = HVCode(5)
        stripe = encoded_stripe(code)
        buf = recover_element(code, stripe, (0, 0))
        buf[0] ^= 0xFF
        assert stripe.get((0, 0))[0] != buf[0]

    def test_rung2_chain_repair(self):
        code = HVCode(5)
        stripe = encoded_stripe(code)
        original = bytes(stripe.get((1, 1)))
        stripe.erase((1, 1))
        stats = HealingStats()
        buf = recover_element(code, stripe, (1, 1), stats)
        assert bytes(buf) == original
        assert stats.chain_repairs == 1
        assert stats.escalations == 0
        # The stripe itself is untouched: callers persist repairs.
        assert not stripe.readable((1, 1))

    def test_rung2_latent_cell(self):
        code = RDPCode(5)
        stripe = encoded_stripe(code)
        original = bytes(stripe.get((0, 2)))
        stripe.mark_latent((0, 2))
        stats = HealingStats()
        assert bytes(recover_element(code, stripe, (0, 2), stats)) == original
        assert stats.chain_repairs == 1

    def test_rung3_escalates_when_chains_poisoned(self):
        code = HVCode(5)
        stripe = encoded_stripe(code)
        pos = (0, 0)
        original = bytes(stripe.get(pos))
        stripe.erase(pos)
        poison_chains(code, stripe, pos)
        stats = HealingStats()
        buf = recover_element(code, stripe, pos, stats)
        assert bytes(buf) == original
        assert stats.escalations == 1


class TestDecodeResilient:
    def test_no_faults_is_a_copy(self):
        code = HVCode(5)
        stripe = encoded_stripe(code)
        work = decode_resilient(code, stripe)
        assert work == stripe
        assert work is not stripe

    def test_one_disk_plus_one_sector(self):
        # The paper's rebuild-window hazard: a whole column down AND a
        # URE on a survivor must decode.
        code = HVCode(5)
        stripe = encoded_stripe(code)
        pristine = stripe.copy()
        stripe.erase_disks([0])
        stripe.mark_latent((1, 2))
        stats = HealingStats()
        work = decode_resilient(code, stripe, stats)
        assert work == pristine
        assert stats.escalations == 1
        assert stats.reads > 0

    def test_two_disks_down_decodes(self):
        code = HVCode(5)
        stripe = encoded_stripe(code)
        pristine = stripe.copy()
        stripe.erase_disks([1, 3])
        assert decode_resilient(code, stripe) == pristine

    def test_beyond_capability_raises(self):
        code = HVCode(5)
        stripe = encoded_stripe(code)
        stripe.erase_disks([0, 1])
        stripe.mark_latent((0, 3))
        with pytest.raises(UnrecoverableFaultError):
            decode_resilient(code, stripe)

    def test_stats_merge(self):
        a, b = HealingStats(), HealingStats()
        a.reads, b.reads = 3, 4
        b.escalations = 1
        a.merge(b)
        assert a.reads == 7
        assert a.escalations == 1


class TestRepairPathsDecodeOnTheStoresEngine:
    """Rung 3 of every repair path runs where the store's ``engine=``
    says, not silently through the scalar peel."""

    @pytest.fixture
    def decode_engines(self, monkeypatch):
        seen = []
        decode = ArrayCode.decode

        def spy(self, stripe, failed_disks=None, *, engine="python"):
            seen.append(engine)
            return decode(self, stripe, failed_disks, engine=engine)

        monkeypatch.setattr(ArrayCode, "decode", spy)
        return seen

    @staticmethod
    def make_store(engine, code=None):
        store = FileStore(code or HVCode(5), element_size=16, engine=engine)
        payload = bytes(
            (i * 11 + 5) % 256 for i in range(3 * store.bytes_per_stripe)
        )
        store.write(0, payload)
        return store, payload

    def test_recover_element_rung3(self, decode_engines):
        code = HVCode(5)
        stripe = encoded_stripe(code)
        original = bytes(stripe.get((0, 0)))
        stripe.erase((0, 0))
        poison_chains(code, stripe, (0, 0))
        buf = recover_element(code, stripe, (0, 0), engine="fused")
        assert bytes(buf) == original
        assert decode_engines == ["fused"]

    def test_scrub_escalation(self, decode_engines):
        # A flip beside two latent cells of one Cauchy-RS row: peeling
        # stalls, the compiler solves by elimination, and the plan runs.
        store, payload = self.make_store("fused", get_code("Cauchy-RS", 5))
        stripe = store.stripes[1]
        stripe.flip_bits((0, 0), 3)
        stripe.mark_latent((0, 2))
        stripe.mark_latent((0, 3))
        lost = (0, 2, 3)
        plan = compile_plan(store.code, "read", (lost, lost, ()))
        report = store.scrub_checksums()
        assert report.chain_repairs == 3
        assert report.repair_reads == len(plan.reads)
        assert decode_engines == []
        assert store.healing.escalations == 0
        assert store.read(0, len(payload)) == payload
        assert store.scrub_checksums(repair=False).clean

    def test_scrub_heals_poisoned_chains_by_plan(self, decode_engines):
        store, payload = self.make_store("fused")
        stripe = store.stripes[1]
        stripe.flip_bits((0, 0), 3)
        poison_chains(store.code, stripe, (0, 0))
        lost = (0, *np.flatnonzero(stripe.state).tolist())
        plan = compile_plan(store.code, "read", (lost, lost, ()))
        report = store.scrub_checksums()
        assert report.chain_repairs == len(lost)
        assert report.repair_reads == len(plan.reads)
        assert decode_engines == []
        assert store.read(0, len(payload)) == payload
        assert store.scrub_checksums(repair=False).clean

    def test_orchestrated_rebuild_escalation(self, decode_engines):
        # EVENODD with disks 0 and 1 down is a pattern peeling cannot
        # finish; every stripe runs the plan the compiler completes by
        # elimination, and no stripe is decoded.
        store, payload = self.make_store("fused", EvenOddCode(5))
        store.fail_disk(0)
        store.fail_disk(1)
        column = tuple(range(0, store.code.rows * store.code.cols, store.code.cols))
        lost = tuple(sorted({*column, *(s + 1 for s in column)}))
        plan = compile_plan(store.code, "read", (lost, column, ()))
        report = RebuildOrchestrator(store).rebuild(0)
        assert report.chain_reads == len(store.stripes) * len(plan.reads)
        assert store.healing.reads == report.chain_reads
        assert store.healing.escalations == 0
        assert decode_engines == []
        assert store.read(0, len(payload)) == payload
