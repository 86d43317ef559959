"""The degraded path: plan first, rank oracle only in the Python decoder.

A degraded ``FileStore`` operation on a compiled engine costs one plan
lookup and one kernel call per stripe — finding the plan *is* the
recoverability proof, for the patterns peeling cannot finish too —
while the GF(2) rank oracle guards the pure-Python decoder.  These
tests pin both halves, the engine differential of the whole
fail → read → degraded write → fail → read → rebuild drive, and the
two checksum promises of that path: a degraded write re-checksums only
what it changed, and a rebuild gates a whole column before it commits
any of it — refusing it exactly when the chains it chose read a flip.
"""

import numpy as np
import pytest

import repro.array.filestore as filestore_mod
import repro.engine.compile as compile_mod
import repro.faults.healing as healing_mod
import repro.xor.bitmatrix as bitmatrix
from repro import EvenOddCode, HVCode
from repro.array.filestore import FileStore
from repro.array.stripe import ERASED
from repro.codes.base import ArrayCode
from repro.codes.registry import get_code
from repro.engine import PLAN_CACHE, compile_plan
from repro.exceptions import (
    ChecksumMismatchError,
    UnrecoverableFailureError,
    UnrecoverableFaultError,
)
from repro.faults import RebuildOrchestrator
from repro.faults.healing import HealingStats, decode_resilient
from repro.recovery.peeling import peel_schedule

from ..conftest import ALL_CODE_CLASSES, VECTOR
from ..test_engine.test_backends import BACKENDS as COMPILED

ELEMENT_SIZE = 64
STRIPES = 3


def filled_store(code, engine, seed=7, cache_stripes=0):
    store = FileStore(
        code, element_size=ELEMENT_SIZE, engine=engine, cache_stripes=cache_stripes
    )
    rng = np.random.default_rng(seed)
    store.write(0, rng.bytes(STRIPES * store.bytes_per_stripe))
    return store


def drive(store, seed=11):
    """Rewrite a whole stripe, fail, read and write degraded, fail
    again, read, rebuild both.

    The rewrite lands the bytes the stripe already holds: a full-stripe
    write the cost model re-encodes when it is deferred, and a
    read-modify-write of every cell otherwise.  Ends healthy, so a
    second call repeats every erasure pattern of the first.  Returns
    everything the reads returned.
    """
    rng = np.random.default_rng(seed)
    d1, d2 = 1, store.code.cols - 2
    span = 3 * ELEMENT_SIZE
    seen = []
    store.write(0, store.read(0, store.bytes_per_stripe))
    store.fail_disk(d1)
    seen.append(store.read(0, store.capacity))
    for stripe_idx in range(STRIPES):  # one reconstruct-write per stripe
        offset = stripe_idx * store.bytes_per_stripe + ELEMENT_SIZE // 2
        store.write(offset, rng.bytes(span))
    store.fail_disk(d2)
    seen.append(store.read(0, store.capacity))
    store.rebuild(d1)
    store.rebuild(d2)
    seen.append(store.read(0, store.capacity))
    return seen


@pytest.fixture
def eliminations(monkeypatch):
    """Counts every GF(2) elimination (rank or solve) while active."""
    calls = []
    reduce = bitmatrix.gf2_row_reduce

    def counting(matrix, rhs=None):
        calls.append(matrix.shape)
        return reduce(matrix, rhs)

    monkeypatch.setattr(bitmatrix, "gf2_row_reduce", counting)
    return calls


class TestHotPathIsEliminationFree:
    def test_warm_compiled_pass_eliminates_and_compiles_nothing(self, eliminations):
        store = filled_store(HVCode(7), "auto")
        first = drive(store)
        del eliminations[:]
        misses = PLAN_CACHE.misses
        repairs = store.healing.chain_repairs
        second = drive(store)
        assert store.healing.chain_repairs > repairs  # it did decode
        assert store.healing.escalations == 0  # never a full one
        assert eliminations == []
        assert PLAN_CACHE.misses == misses
        assert second[0] == first[2]  # the volume the first pass left
        assert store.scrub() == []

    def test_warm_drive_asks_for_every_plan_in_canonical_form(self, monkeypatch):
        # Every plan lookup of the store is the compiler's canonical-key
        # probe: a store that handed it a list or positions again would
        # pay for normalising the pattern on every degraded op.
        store = filled_store(HVCode(7), "auto")
        drive(store)
        normalised = []
        canonical = compile_mod._canonical_pattern

        def spy(code, op, pattern):
            normalised.append((op, pattern))
            return canonical(code, op, pattern)

        monkeypatch.setattr(compile_mod, "_canonical_pattern", spy)
        hits = PLAN_CACHE.hits
        drive(store)
        assert PLAN_CACHE.hits > hits  # it did look plans up
        assert normalised == []

    def test_python_engine_consults_the_oracle_once_per_decode(
        self, monkeypatch, eliminations
    ):
        counts = {"decode": 0, "can_recover": 0}

        def counted(name):
            method = getattr(ArrayCode, name)

            def wrapper(self, *args, **kwargs):
                counts[name] += 1
                return method(self, *args, **kwargs)

            monkeypatch.setattr(ArrayCode, name, wrapper)

        counted("decode")
        counted("can_recover")
        store = filled_store(HVCode(7), "python")
        del eliminations[:]
        drive(store)
        assert counts["decode"] > 0
        assert counts["can_recover"] == counts["decode"]
        # HV peels every pattern: one rank per decode, never a solve.
        assert len(eliminations) == counts["decode"]


class TestFallbackKeepsTheOracle:
    """The patterns the Python decoder needs more than peeling for run
    a compiled plan on every other engine, to the oracle's bytes."""

    #: two data columns need the adjuster (the classic column decoder);
    #: the scattered cells need the generic peel + Gaussian decoder
    EVENODD_PATTERNS = [
        [(r, c) for c in (0, 1) for r in range(4)],
        [(0, 0), (0, 4), (1, 0), (1, 3)],
    ]

    @pytest.mark.parametrize("engine", COMPILED)
    @pytest.mark.parametrize("cells", EVENODD_PATTERNS)
    def test_evenodd_gaussian_patterns_match_python(
        self, engine, cells, eliminations, monkeypatch
    ):
        code = EvenOddCode(5)
        plan = compile_plan(code, "decode", tuple(cells))
        whole = code.random_stripe(element_size=24, seed=5)
        broken = whole.copy()
        for pos in cells:
            broken.erase(pos)
        reference = broken.copy()
        code.decode(reference)
        del eliminations[:]
        for cls in (ArrayCode, EvenOddCode):
            monkeypatch.setattr(cls, "_decode_python", lambda *a: pytest.fail("python decoder"))
        report = code.decode(broken, engine=engine)
        assert broken == reference == whole
        assert (report.peeled, report.gaussian, report.rounds) == (
            list(plan.output_positions),
            [],
            plan.rounds,
        )
        assert eliminations == []  # the plan was found, never re-derived

    @pytest.mark.parametrize("engine", COMPILED)
    def test_evenodd_peelable_pattern_runs_the_plan(self, engine, monkeypatch):
        # One rule for every compiled engine: a pattern peeling finishes
        # never reaches the classic column decoder.
        code = EvenOddCode(5)
        monkeypatch.setattr(
            EvenOddCode, "_decode_columns", lambda *a: pytest.fail("scalar zig-zag")
        )
        whole = code.random_stripe(element_size=24, seed=6)
        broken = whole.copy()
        report = code.decode(broken, [2, 6], engine=engine)
        plan = compile_plan(code, "decode", tuple((r, c) for r in range(4) for c in (2, 6)))
        assert broken == whole
        assert (report.peeled, report.rounds) == (list(plan.output_positions), plan.rounds)

    @pytest.mark.parametrize("engine", ["python", *COMPILED])
    @pytest.mark.parametrize("third", ["cell", "disk"])
    def test_unrecoverable_raises_and_leaves_the_stripe_alone(self, engine, third):
        code = HVCode(7)
        damaged = code.random_stripe(element_size=16, seed=9)
        damaged.erase_disks([0, 3])
        erased = damaged.copy()
        if third == "cell":
            damaged.mark_latent((2, 5))  # two disks plus one sector
            erased.erase((2, 5))
        else:
            damaged.erase_disks([5])
            erased.erase_disks([5])
        stats = HealingStats()
        before = damaged.copy()
        with pytest.raises(UnrecoverableFaultError):
            decode_resilient(code, damaged, stats, engine=engine)
        assert damaged == before
        assert (stats.escalations, stats.reads) == (0, 0)
        before = erased.copy()
        with pytest.raises(UnrecoverableFailureError):
            code.decode(erased, engine=engine)
        assert erased == before


#: every compiled engine write-through (the bare id) and over a
#: two-stripe write-back cache
DRIVE_ENGINES = [
    pytest.param(engine, cache_stripes, id=name + ("-cached" if cache_stripes else ""), marks=marks)
    for cache_stripes in (0, 2)
    for name, engine, marks in [
        ("vector", "fused", pytest.mark.narrow_tiles),
        ("fused", "fused", ()),
        ("auto", "auto", ()),
    ]
]


@pytest.mark.parametrize("engine, cache_stripes", DRIVE_ENGINES)
@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("cls", ALL_CODE_CLASSES, ids=lambda cls: cls.name)
def test_drive_matches_the_python_engine(cls, p, engine, cache_stripes):
    stores = [
        filled_store(cls(p), e, cache_stripes=cache_stripes)
        for e in ("python", engine)
    ]
    seen = [drive(store) for store in stores]
    oracle, store = stores
    assert seen[1] == seen[0]
    for ours, theirs in zip(store.stripes, oracle.stripes):
        assert ours == theirs
    assert all(
        np.array_equal(a, b)
        for a, b in zip(store.sidecar.stripes, oracle.sidecar.stripes)
    )
    assert store.stats.reads == oracle.stats.reads
    assert store.stats.writes == oracle.stats.writes
    assert vars(store.healing) == vars(oracle.healing)
    assert all(type(v) is int for v in vars(store.healing).values())
    assert (store.data_writes, store.parity_writes) == (
        oracle.data_writes,
        oracle.parity_writes,
    )
    assert store.scrub() == []
    assert store.scrub_checksums(repair=False).clean


def flip_then_write(code, flipped):
    """Flip ``flipped`` in stripe 0 (or nothing), fail disk 4, and write
    one data cell elsewhere through the degraded read-modify-write."""
    store = filled_store(code, "auto")
    flips = []
    if flipped is not None:
        store.stripes[0].flip_bits(flipped, byte_index=5)
        flips = [(0, flipped)]
    assert store.scrub_checksums(repair=False).flips_detected == flips
    store.fail_disk(4)
    store.write(written(code) * ELEMENT_SIZE, b"\xa5" * ELEMENT_SIZE)
    # Only the written cell and its parities were re-checksummed: the
    # flip is still on record.
    assert store.scrub_checksums(repair=False).flips_detected == flips
    return store, flips


def written(code):
    """The data element :func:`flip_then_write` writes."""
    return next(i for i, pos in enumerate(code.data_positions) if pos[1] not in (2, 4))


def rebuild_reads(code, disk):
    """The other data cells the rebuild's ``read`` plan does / does not read."""
    column = tuple(range(disk, code.rows * code.cols, code.cols))
    reads = {divmod(s, code.cols) for s in compile_plan(code, "read", (column, column, ())).reads}
    cells = [
        pos
        for i, pos in enumerate(code.data_positions)
        if pos[1] != disk and i != written(code)
    ]
    return [p for p in cells if p in reads], [p for p in cells if p not in reads]


class TestChecksumPromises:
    def test_reconstruct_write_does_not_launder_a_silent_flip(self):
        code = HVCode(7)
        read, _ = rebuild_reads(code, 4)
        store, _ = flip_then_write(code, read[0])
        # What the rebuild plan decodes *from* the flip cannot pass for
        # good data.
        with pytest.raises(ChecksumMismatchError):
            store.rebuild(4)
        assert store.failed_disks == {4}

    def test_a_flip_no_chosen_chain_reads_does_not_stop_the_rebuild(self):
        code = HVCode(7)
        _, unread = rebuild_reads(code, 4)
        store, flips = flip_then_write(code, unread[0])
        reference, _ = flip_then_write(code, None)
        store.rebuild(4)
        reference.rebuild(4)
        for ours, theirs in zip(store.stripes, reference.stripes):
            assert np.array_equal(ours.data[:, 4], theirs.data[:, 4])
        assert store.failed_disks == set()
        assert store.scrub_checksums(repair=False).flips_detected == flips

    @pytest.mark.parametrize("engine", ["python", "auto"])
    def test_rebuild_gates_the_whole_column_before_committing(self, engine):
        code = HVCode(7)
        store = filled_store(code, engine)
        pristine = [stripe.copy() for stripe in store.stripes]
        disk = 3
        store.fail_disk(disk)
        # (1, 2) feeds only some rows of the lost column: the gate must
        # refuse the rows it does not feed as well.
        store.stripes[1].flip_bits((1, 2), byte_index=0)
        with pytest.raises(ChecksumMismatchError):
            store.rebuild(disk)
        assert store.failed_disks == {disk}
        assert store.stripes[0] == pristine[0]  # restored before the refusal
        poisoned = store.stripes[1]
        assert (poisoned.state[:, disk] == ERASED).all()
        assert not poisoned.data[:, disk].any()
        assert (store.stripes[2].state[:, disk] == ERASED).all()  # never reached



#: the codes whose disk pair (0, 1) peeling alone cannot finish
UNPEELABLE_CODES = ["EVENODD", "Liberation", "Cauchy-RS"]
#: ``fused`` and ``native`` (skipped without a C compiler)
STORE_ENGINES = [e for e in COMPILED if e not in (VECTOR, "auto")]


class TestOneDecodePath:
    """A store on a compiled engine restores every cell through a
    compiled plan, the patterns peeling cannot finish included: the
    ladder's full decode and the Python decoder are never reached."""

    @pytest.fixture(autouse=True)
    def no_python_decoder(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("a store operation reached the Python decoder")

        for module in (healing_mod, filestore_mod):
            monkeypatch.setattr(module, "decode_resilient", refuse)
            monkeypatch.setattr(module, "recover_element", refuse)
        for cls in (ArrayCode, EvenOddCode):
            monkeypatch.setattr(cls, "_decode_python", refuse)

    @staticmethod
    def store_and_model(name, engine, stripes=4):
        store = FileStore(get_code(name, 5), element_size=ELEMENT_SIZE, engine=engine)
        model = bytearray(np.random.default_rng(17).bytes(stripes * store.bytes_per_stripe))
        store.write(0, model)
        return store, model

    @staticmethod
    def across_boundaries(store, model, seed):
        """A read and a write straddling each stripe boundary, checked
        against the model."""
        rng = np.random.default_rng(seed)
        bps, size = store.bytes_per_stripe, 3 * ELEMENT_SIZE
        for boundary in range(bps, len(model), bps):
            offset = boundary - size // 2
            assert store.read(offset, size) == bytes(model[offset : offset + size])
            payload = rng.bytes(size)
            store.write(offset + 7, payload)
            model[offset + 7 : offset + 7 + size] = payload
        assert store.read(0, len(model)) == bytes(model)

    @staticmethod
    def column_plan(code, lost_disks, disk):
        lost = tuple(s for s in range(code.rows * code.cols) if s % code.cols in lost_disks)
        column = tuple(s for s in lost if s % code.cols == disk)
        return compile_plan(code, "read", (lost, column, ()))

    @pytest.mark.parametrize("driver", ["store", "orchestrator"])
    @pytest.mark.parametrize("engine", STORE_ENGINES)
    @pytest.mark.parametrize("name", UNPEELABLE_CODES)
    def test_unpeelable_pair_reads_writes_and_rebuilds_by_plan(self, name, engine, driver):
        store, model = self.store_and_model(name, engine)
        code = store.code
        assert peel_schedule(code.equations, code.disk_cells(0) + code.disk_cells(1)).stuck
        store.fail_disk(0)
        store.stripes[1].mark_latent((code.rows - 1, 3))  # one disk plus one sector
        self.across_boundaries(store, model, seed=1)
        if store.stripes[1].latent_positions():  # a write may have healed it
            assert store.scrub_checksums().chain_repairs == 1
        store.fail_disk(1)
        self.across_boundaries(store, model, seed=2)
        for disk, lost in ((0, (0, 1)), (1, (1,))):
            plan = self.column_plan(code, lost, disk)
            reads = store.healing.reads
            if driver == "store":
                store.rebuild(disk)
            else:
                assert RebuildOrchestrator(store).rebuild(disk).completed
            assert store.healing.reads - reads == len(store.stripes) * len(plan.reads)
        assert store.failed_disks == set()
        assert store.read(0, len(model)) == bytes(model)
        assert store.scrub() == []
        assert store.scrub_checksums(repair=False).clean
        assert store.healing.escalations == 0

    @pytest.mark.parametrize("engine", STORE_ENGINES)
    @pytest.mark.parametrize("name", UNPEELABLE_CODES)
    def test_scrub_of_a_flip_beside_two_latent_cells(self, name, engine):
        store, model = self.store_and_model(name, engine)
        stripe = store.stripes[1]
        stripe.flip_bits((0, 0), 3)
        stripe.mark_latent((0, 2))
        stripe.mark_latent((0, 3))
        lost = (0, 2, 3)
        plan = compile_plan(store.code, "read", (lost, lost, ()))
        report = store.scrub_checksums()
        assert (report.chain_repairs, report.repair_reads) == (3, len(plan.reads))
        assert store.read(0, len(model)) == bytes(model)
        assert store.scrub_checksums(repair=False).clean
        assert store.healing.escalations == 0
