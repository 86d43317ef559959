"""Differential proof for the kernel-backend registry.

Every registered backend — fused (also at one-word tiles, the
``vector`` cases) and, when a C compiler exists, native — must be
*byte-identical* to the scalar oracle on every code, every plan kind,
aligned and unaligned element sizes, single stripes and batches, and
degraded inputs.  Hypothesis drives the sweep; the scalar executor and
the pure-Python decoder are the ground truth.

Alongside the differential sweep this file pins the backend contract:
registry resolution rules, the fused kernel-call accounting drop, the
``update`` contract (one inherited default, one native override), and
graceful handling of unavailable backends.
"""

import gc
import os
import pickle
import re
import subprocess
import sys
import weakref
import zlib
from pathlib import Path

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
from repro.array.iostats import IOStats
from repro.array.stripe import ERASED, HEALTHY, StripeBatch
from repro.codes.registry import EVALUATED_CODE_NAMES, get_code
from repro.engine import (
    ENGINE_CHOICES,
    XorPlan,
    XorStep,
    available_backends,
    compile_plan,
    execute_plan,
    execute_plan_scalar,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.engine.backends import KernelBackend
from repro.exceptions import InvalidParameterError, PlanError
from repro.recovery.peeling import peel_schedule

from ..conftest import VECTOR

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

NATIVE_AVAILABLE = get_backend("native").available()

BACKENDS = [
    VECTOR,
    "fused",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not NATIVE_AVAILABLE, reason="no C compiler on this host"
        ),
    ),
    "auto",
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

#: 5 and 13 force the uint8-lane fallback; 8 and 16 take the uint64 view.
ELEMENT_SIZES = st.sampled_from([5, 8, 13, 16])


@pytest.mark.parametrize("engine", BACKENDS)
class TestBackendsMatchOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        code=code_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
        element_size=ELEMENT_SIZES,
    )
    def test_encode_matches_python(self, engine, code, seed, element_size):
        stripe = code.random_stripe(element_size=element_size, seed=seed)
        redone = stripe.copy()
        for pos in code.parity_positions:
            redone.set(pos, np.zeros(element_size, dtype=np.uint8))
        code.encode(redone, engine=engine)
        assert redone == stripe

    @settings(max_examples=25, deadline=None)
    @given(
        code=code_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
        element_size=ELEMENT_SIZES,
        data=st.data(),
    )
    def test_double_decode_matches_python(
        self, engine, code, seed, element_size, data
    ):
        stripe = code.random_stripe(element_size=element_size, seed=seed)
        f1 = data.draw(st.integers(0, code.cols - 1))
        f2 = data.draw(
            st.integers(0, code.cols - 1).filter(lambda x: x != f1)
        )
        via_python, via_backend = stripe.copy(), stripe.copy()
        code.decode(via_python, failed_disks=[f1, f2])
        code.decode(via_backend, failed_disks=[f1, f2], engine=engine)
        assert via_python == stripe
        assert via_backend == stripe

    @settings(max_examples=25, deadline=None)
    @given(
        code=code_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_random_erasures_match_python(self, engine, code, seed, data):
        """Any recoverable degraded stripe decodes identically."""
        stripe = code.random_stripe(element_size=8, seed=seed)
        cells = sorted(code.layout)
        k = data.draw(st.integers(0, min(6, len(cells))))
        erased = data.draw(
            st.lists(
                st.sampled_from(cells), min_size=k, max_size=k, unique=True
            )
        )
        if not code.can_recover(erased):
            return
        via_python, via_backend = stripe.copy(), stripe.copy()
        for pos in erased:
            via_python.erase(pos)
            via_backend.erase(pos)
        code.decode(via_python)
        code.decode(via_backend, engine=engine)
        assert via_python == stripe
        assert via_backend == stripe

    @settings(max_examples=15, deadline=None)
    @given(
        code=xor_code_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
        element_size=ELEMENT_SIZES,
        data=st.data(),
    )
    def test_raw_plan_matches_scalar_executor(
        self, engine, code, seed, element_size, data
    ):
        """Below the decode API: the same XorPlan, backend vs word-by-word."""
        f1 = data.draw(st.integers(0, code.cols - 1))
        f2 = data.draw(
            st.integers(0, code.cols - 1).filter(lambda x: x != f1)
        )
        try:
            plan = compile_plan(code, "recover-double", (f1, f2))
        except PlanError:
            return  # Gaussian-only pattern; nothing to compare
        stripe = code.random_stripe(element_size=element_size, seed=seed)
        via_backend, scal = stripe.copy(), stripe.copy()
        via_backend.erase_disks([f1, f2])
        scal.erase_disks([f1, f2])
        execute_plan(plan, via_backend, backend=engine)
        execute_plan_scalar(plan, scal)
        assert via_backend == stripe
        assert scal == stripe

    def test_batch_encode_matches_per_stripe_scalar(self, engine):
        code = get_code("HV", 7)
        plan = compile_plan(code, "encode")
        stripes = [
            code.random_stripe(element_size=24, seed=i) for i in range(4)
        ]
        expected = [s.copy() for s in stripes]
        for s in expected:
            execute_plan_scalar(plan, s)
        batch = StripeBatch.from_stripes(stripes)
        execute_plan(plan, batch, backend=engine)
        for got, want in zip(batch.stripes(), expected):
            assert got == want

    def test_filestore_flush_matches_python_store(self, engine):
        """The write-back flush path stores identical bytes per backend
        — and so does a third-party backend that implements nothing
        but ``execute``: the ``update`` it inherits is sufficient."""
        code = get_code("RDP", 5)
        payload = bytes((i * 37) % 256 for i in range(500))
        reference = FileStore(code, element_size=32, engine="python")
        store = FileStore(code, element_size=32, engine=engine)
        for s in (reference, store):
            s.write(0, payload)
        for a, b in zip(reference.stripes, store.stripes):
            assert a == b

        inner, ops = resolve_backend(engine), []

        class ExecuteOnly(KernelBackend):
            name = "fused"  # stands in for the shipped one while registered

            def execute(self, plan, target, *, stats=None):
                ops.append(plan.op)
                inner.execute(plan, target, stats=stats)

        shipped = get_backend("fused")
        register_backend(ExecuteOnly())
        try:
            oracle, third_party = (
                FileStore(code, element_size=32, engine=e, cache_stripes=2)
                for e in ("python", "fused")
            )
            for s in (oracle, third_party):
                s.write(0, payload + payload)
                s.flush()
                # the same two cells of both stripes (one two-stripe
                # group), then a second pattern on the first stripe
                for offset in (10, s.bytes_per_stripe + 10, 300):
                    s.write(offset, payload[:40])
                s.flush()
        finally:
            register_backend(shipped)
        assert "update" in ops
        assert third_party.parity_writes == oracle.parity_writes
        for a, b in zip(oracle.stripes, third_party.stripes):
            assert a == b
        for a, b in zip(oracle.sidecar.stripes, third_party.sidecar.stripes):
            assert np.array_equal(a, b)


class TestKernelAccounting:
    def test_fused_backends_charge_fewer_kernel_calls(self):
        """Every backend charges one reduction per step, never the cost
        model's one kernel per XOR source (``kernel_calls``) — and
        ``execute_plan``'s default is ``fused``."""
        code = get_code("HV", 7)
        plan = compile_plan(code, "encode")
        assert plan.fused_kernel_calls < plan.kernel_calls
        assert plan.fused_kernel_calls == len(plan.steps)

        def run(backend):
            stripe = code.random_stripe(element_size=64, seed=3)
            stats = IOStats(code.cols)
            execute_plan(plan, stripe, stats=stats, backend=backend)
            return stats.kernel_invocations

        assert run(None) == run("fused") == plan.fused_kernel_calls
        if NATIVE_AVAILABLE:
            assert run("native") == plan.fused_kernel_calls

    def test_fused_kernel_calls_not_in_plan_hash(self):
        plan = compile_plan(get_code("HV", 7), "encode")
        payload = plan.to_dict()
        assert "fused_kernel_calls" not in payload

    def test_backends_charge_same_xor_words(self):
        code = get_code("EVENODD", 7)
        plan = compile_plan(code, "encode")
        words = {}
        for backend in available_backends():
            stripe = code.random_stripe(element_size=64, seed=5)
            stats = IOStats(code.cols)
            execute_plan(plan, stripe, stats=stats, backend=backend)
            words[backend] = stats.xor_words
        assert set(words.values()) == {plan.xors_per_word * 8}


class TestRegistry:
    def test_engine_choices_cover_registry(self):
        assert set(available_backends()) <= set(ENGINE_CHOICES)
        assert "fused" in available_backends()

    def test_require_engine_accepts_all_choices(self):
        for name in ENGINE_CHOICES:
            if name == "native" and not NATIVE_AVAILABLE:
                continue
            assert resolve_backend(name).name in (name, "fused", "native")

    def test_require_engine_rejects_unknown(self):
        with pytest.raises(InvalidParameterError, match="unknown engine"):
            resolve_backend("cuda")

    def test_the_removed_engine_is_an_unknown_engine(self):
        """No alias or deprecation path for the deleted process-pool
        backend: its name fails the one validator like any other."""
        assert ENGINE_CHOICES == ("python", "fused", "native", "auto")
        with pytest.raises(InvalidParameterError, match="unknown engine"):
            resolve_backend("parallel")
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            get_backend("parallel")

    def test_the_removed_numpy_engine_is_an_unknown_engine(self):
        """``vector``, the per-step numpy executor ``fused`` replaced,
        fails at every door with the four names that are left."""
        code = get_code("HV", 5)
        plan = compile_plan(code, "encode")
        stripe = code.random_stripe(element_size=8, seed=0)
        before = stripe.copy()
        listed = re.escape(str(ENGINE_CHOICES))
        for attempt in (
            lambda: resolve_backend("vector"),
            lambda: FileStore(code, element_size=8, engine="vector"),
            lambda: execute_plan(plan, stripe, backend="vector"),
        ):
            with pytest.raises(InvalidParameterError, match=listed):
                attempt()
        assert stripe == before

    def test_resolve_auto_prefers_native_else_fused(self):
        resolved = resolve_backend("auto")
        if NATIVE_AVAILABLE:
            assert resolved.name == "native"
        else:
            assert resolved.name == "fused"

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            get_backend("gpu")

    def test_register_backend_rejects_reserved_names(self):
        for reserved in ("python", "auto", "abstract"):
            bad = KernelBackend()
            bad.name = reserved
            with pytest.raises(InvalidParameterError):
                register_backend(bad)

    def test_native_unavailable_is_explicit_not_silent(self, monkeypatch):
        from repro.engine.backends import native as native_mod

        monkeypatch.setattr(native_mod, "_KERNEL", False)
        backend = get_backend("native")
        assert not backend.available()
        code = get_code("HV", 5)
        plan = compile_plan(code, "encode")
        stripe = code.random_stripe(element_size=8, seed=0)
        with pytest.raises(InvalidParameterError, match="auto"):
            backend.execute(plan, stripe)
        # ...while auto degrades gracefully to a working backend.
        assert resolve_backend("auto").name == "fused"

    @pytest.mark.skipif(not NATIVE_AVAILABLE, reason="needs a C compiler")
    def test_library_missing_a_symbol_falls_back(self, monkeypatch):
        """A library that builds but lacks an entry point is refused
        with its reason, and ``auto`` keeps working on fused."""
        from repro.engine.backends import native as native_mod

        monkeypatch.setattr(native_mod, "_C_SOURCE", "void xor_exec_plan(void) {}\n")
        monkeypatch.setattr(native_mod, "_KERNEL", None)
        monkeypatch.setattr(native_mod, "UNAVAILABLE_REASON", None)
        assert not get_backend("native").available()
        assert native_mod.UNAVAILABLE_REASON == "missing symbol"
        assert resolve_backend("auto").name == "fused"

    def test_no_process_machinery_is_imported(self):
        """A cached ``auto`` store driven through writes, a flush, a
        disk failure and a rebuild never imports ``multiprocessing``:
        no pool to fork from a threaded scheduler, no ``/dev/shm``."""
        probe = (
            "import sys\n"
            "import repro\n"
            "from repro.array.filestore import FileStore\n"
            "from repro.codes.registry import get_code\n"
            "from repro.engine import shutdown_backends\n"
            "store = FileStore(\n"
            "    get_code('HV', 7), element_size=16, engine='auto', cache_stripes=2\n"
            ")\n"
            "for i in range(20):\n"
            "    store.write(i * 37, bytes([i + 1]) * 50)\n"
            "assert store.flush()\n"
            "store.fail_disk(1)\n"
            "store.write(5, b'x' * 40)\n"
            "store.rebuild(1)\n"
            "assert store.scrub() == []\n"
            "shutdown_backends()\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        env = {
            "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
            "PATH": os.environ.get("PATH", ""),
        }
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("broken_compiler", [False, True])
    def test_native_build_directory_is_removed(self, tmp_path, broken_compiler):
        """A fresh process compiles (or fails to) and leaves nothing in
        the temp dir; the library stays usable after its file is gone."""
        probe = (
            "from repro.codes.registry import get_code\n"
            "from repro.engine import compile_plan, get_backend\n"
            "native = get_backend('native')\n"
            "if native.available():\n"
            "    code = get_code('HV', 5)\n"
            "    stripe = code.random_stripe(element_size=16, seed=0)\n"
            "    native.execute(compile_plan(code, 'encode'), stripe)\n"
            "    assert code.verify(stripe)\n"
            "print('available' if native.available() else 'unavailable')\n"
            "from repro.engine.backends.native import UNAVAILABLE_REASON\n"
            "print(UNAVAILABLE_REASON)\n"
        )
        env = {
            "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
            "TMPDIR": str(tmp_path),
            "PATH": os.environ.get("PATH", ""),
        }
        if broken_compiler:
            fake = tmp_path / "bin"
            fake.mkdir()
            (fake / "cc").write_text("#!/bin/sh\necho 'cc: broken' >&2\nexit 1\n")
            (fake / "cc").chmod(0o755)
            env["PATH"] = str(fake)
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        if broken_compiler:
            assert result.stdout.split("\n")[:2] == [
                "unavailable",
                "compile failed: cc: broken",
            ]
        elif NATIVE_AVAILABLE:
            assert result.stdout.split("\n")[:2] == ["available", "None"]
        assert not list(tmp_path.glob("repro-native-*"))


class TestUpdateContract:
    """``KernelBackend.update`` — the inherited default (one delta
    batch -> ``execute`` -> ``apply_update``) and the native override
    (one fused C call per stripe) — against the chain-walk oracle."""

    UPDATERS = [name for name in BACKENDS if name != "auto"]

    def test_one_default_one_override(self):
        assert type(get_backend("fused")).update is KernelBackend.update
        assert type(get_backend("native")).update is not KernelBackend.update

    @pytest.mark.parametrize("name", UPDATERS)
    @pytest.mark.parametrize("element_size", [5, 8, 13, 64])
    @pytest.mark.parametrize("code_cls", CODE_CLASSES)
    def test_multi_stripe_group_matches_chain_walk(
        self, code_cls, element_size, name
    ):
        code = code_cls(7)
        cells = code.data_positions[1:3]
        plan = compile_plan(code, "update", cells)
        rng = np.random.default_rng(element_size)
        live = [
            code.random_stripe(element_size=element_size, seed=s) for s in range(3)
        ]
        oracle = [s.copy() for s in live]
        olds = []
        for stripe, expected in zip(live, oracle):
            news = {
                pos: rng.integers(0, 256, element_size, dtype=np.uint8)
                for pos in cells
            }
            code.update_elements(expected, news)
            olds.append({plan.slot_of(pos): stripe.data[pos].copy() for pos in cells})
            for pos, new in news.items():
                stripe.data[pos] = new
        stats = IOStats(code.cols)
        get_backend(name).update(code, plan, live, olds, stats=stats)
        assert live == oracle
        assert stats.xor_words > 0

    @pytest.mark.parametrize("name", UPDATERS)
    def test_non_update_plans_are_still_refused(self, name):
        code = get_code("HV", 7)
        stripe = code.random_stripe(element_size=8, seed=0)
        before = stripe.copy()
        for plan in (
            compile_plan(code, "encode"),
            compile_plan(code, "recover-double", (0, 2)),
        ):
            with pytest.raises(
                (PlanError, InvalidParameterError), match="update|names disks"
            ):
                get_backend(name).update(code, plan, [stripe], [{}])
        assert stripe == before


#: The engines a store can fold with: the oracle and each kernel backend.
FOLD_ENGINES = [
    "python",
    "fused",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not NATIVE_AVAILABLE, reason="no C compiler on this host"),
    ),
]

POISON = 0xDEADBEEF


@pytest.mark.parametrize("engine", FOLD_ENGINES)
class TestUpdateRefreshesSums:
    """``update(..., sums=)``: the CRC of every cell the fold touched
    (``plan.pattern + plan.outputs``) is refreshed from the live bytes,
    every other entry is left as it was — on each engine."""

    @pytest.mark.parametrize("name", ["HV", "RDP", "EVENODD"])
    def test_healthy_stripes(self, engine, name):
        code = get_code(name, 7)
        cells = code.data_positions[2:4]
        plan = compile_plan(code, "update", cells)
        touched = set(plan.pattern + plan.outputs)
        rng = np.random.default_rng(len(name))
        live = [code.random_stripe(element_size=24, seed=s) for s in range(2)]
        olds = []
        for stripe in live:
            # bytes, as the write-back cache keeps its pre-images
            olds.append({plan.slot_of(pos): stripe.data[pos].tobytes() for pos in cells})
            for pos in cells:
                stripe.data[pos] = rng.integers(0, 256, 24, dtype=np.uint8)
        sums = [np.full((code.rows, code.cols), POISON, np.uint32) for _ in live]
        resolve_backend(engine).update(
            code, plan, live, olds, stats=IOStats(code.cols), sums=sums
        )
        for stripe, crcs in zip(live, sums):
            assert code.verify(stripe)
            cells_of = stripe.flat_view()
            for slot in range(code.rows * code.cols):
                expected = zlib.crc32(cells_of[slot]) if slot in touched else POISON
                assert crcs.flat[slot] == expected, slot

    @staticmethod
    def _faulted_write(engine, poison):
        """A write-through HV@5 write to (0, 0), whose chains end in (0, 1)
        (its disk failed) and (0, 3) (latent), through ``FileStore._fold``;
        beside it the same writes on a healthy ``python`` twin.  Returns
        the store, the twin and the twin's CRC row before the write."""
        code = get_code("HV", 5)
        store = FileStore(code, element_size=16, engine=engine)
        twin = FileStore(code, element_size=16)
        fill = bytes(np.random.default_rng(5).integers(0, 256, 96, dtype=np.uint8))
        for target in (store, twin):
            target.write(0, fill)
        plan = compile_plan(code, "update", ((0, 0),))
        assert plan.output_positions == ((0, 1), (0, 3))
        store.fail_disk(1)
        store.stripes[0].mark_latent((0, 3))
        if poison:
            store.sidecar.stripes[0][:] = POISON
        before = twin.sidecar.stripes[0].copy()
        for target in (store, twin):
            target.write(3, b"new bytes")
        return store, twin, before

    def test_faulted_stripe_keeps_logical_crcs(self, engine):
        store, twin, _ = self._faulted_write(engine, poison=False)
        stripe = store.stripes[0]
        assert stripe.state[0, 3] == HEALTHY and stripe.state[0, 1] == ERASED
        assert not stripe.data[0, 1].any()
        assert (store.sidecar.stripes[0] == twin.sidecar.stripes[0]).all()
        assert store.scrub_checksums(repair=False).clean

    def test_faulted_stripe_touches_only_its_cells(self, engine):
        store, twin, before = self._faulted_write(engine, poison=True)
        crcs, after = store.sidecar.stripes[0], twin.sidecar.stripes[0]
        for r, c in np.ndindex(crcs.shape):
            if (r, c) in ((0, 0), (0, 3)):  # live: the live cell's CRC
                assert crcs[r, c] == zlib.crc32(store.stripes[0].data[r, c])
            elif (r, c) == (0, 1):  # lost parity: advanced by its delta
                assert crcs[r, c] == POISON ^ before[r, c] ^ after[r, c]
            else:
                assert crcs[r, c] == POISON, (r, c)


@pytest.mark.skipif(not NATIVE_AVAILABLE, reason="no C compiler on this host")
class TestNativeUpdate:
    """The end-to-end native update path: delta build, remapped plan,
    and parity fold fused into one C call, byte-identical to the
    pure-Python chain-walk update."""

    def _updated_pair(self, code, element_size, width, seed=0):
        """(oracle stripe, native-updated stripe) after the same RMW."""
        from repro.engine.compile import choose_update_strategy

        rng = np.random.default_rng(seed)
        stripe = code.random_stripe(element_size=element_size, seed=seed)
        positions = list(code.data_positions[:width])
        news = {
            pos: rng.integers(0, 256, element_size, dtype=np.uint8)
            for pos in positions
        }
        oracle = stripe.copy()
        code.update_elements(oracle, news)

        pattern = tuple(sorted(r * code.cols + c for (r, c) in positions))
        strategy, plan = choose_update_strategy(code, pattern)
        assert strategy == "rmw"
        target = stripe.copy()
        old = {}
        for (r, c), new in news.items():
            old[r * code.cols + c] = target.data[r, c].copy()
            target.data[r, c] = new
        backend = get_backend("native")
        stats = IOStats(code.cols)
        backend.execute_update(plan, target, old, stats=stats)
        assert stats.kernel_invocations == 1  # the whole RMW, one C call
        assert stats.xor_words > 0
        return oracle, target

    @pytest.mark.parametrize("element_size", [5, 8, 13, 24, 64])
    def test_matches_chain_walk_oracle(self, element_size):
        for name, p, width in (("HV", 7, 2), ("RDP", 5, 3), ("HV", 11, 4)):
            code = get_code(name, p)
            oracle, target = self._updated_pair(code, element_size, width)
            assert target == oracle

    @pytest.mark.parametrize("element_size", [5, 8, 13, 24, 64])
    def test_matches_scalar_oracle_on_poisoned_scratch(self, element_size, monkeypatch):
        """The scratch is allocated uninitialised: with every fresh
        allocation poisoned, the fold still equals the scalar executor
        run over a zeroed delta stripe — hoisted temporaries (EVENODD's
        shared S pair) included."""
        from repro.engine.compile import choose_update_strategy

        monkeypatch.setattr(
            np, "empty", lambda shape, dtype=float: np.full(shape, 0xA5, dtype=dtype)
        )
        backend = get_backend("native")
        saw_temps = False
        cases = (("EVENODD", 7, 5, 2), ("EVENODD", 5, 2, 4), ("HV", 11, 7, 10))
        for name, p, start, width in cases:
            code = get_code(name, p)
            cells = code.data_positions[start : start + width]
            pattern = tuple(sorted(r * code.cols + c for r, c in cells))
            strategy, plan = choose_update_strategy(code, pattern)
            assert strategy == "rmw"
            saw_temps |= plan.num_temps > 0
            live = code.random_stripe(element_size=element_size, seed=p)
            rng = np.random.default_rng(start)
            old, delta = {}, code.make_stripe(element_size=element_size)
            for slot, pos in zip(pattern, cells):
                old[slot] = live.data[pos].copy()
                live.data[pos] = rng.integers(0, 256, element_size, dtype=np.uint8)
                delta.data[pos] = old[slot] ^ live.data[pos]
            expected = live.copy()
            execute_plan_scalar(plan, delta)
            for pos in plan.output_positions:
                expected.data[pos] ^= delta.data[pos]
            backend.execute_update(plan, live, old)
            assert live == expected and code.verify(live)
        assert saw_temps

    def test_update_plan_reading_an_undefined_cell_is_refused(self):
        """Validation alone lets an update step read a clean data cell
        (only the outputs count as undefined); over uninitialised
        scratch that would be garbage, so lowering refuses it."""
        code = get_code("HV", 7)
        dirty, clean = (r * code.cols + c for r, c in code.data_positions[:2])
        parity = code.parity_positions[0][0] * code.cols + code.parity_positions[0][1]
        plan = XorPlan(
            code_name="HV", p=7, op="update", pattern=(dirty,),
            rows=code.rows, cols=code.cols,
            steps=(XorStep(dst=parity, srcs=(dirty, clean)),),
            erased=(parity,), outputs=(parity,),
        )
        stripe = code.random_stripe(element_size=8, seed=0)
        before = stripe.copy()
        old = {dirty: stripe.data[code.data_positions[0]].copy()}
        with pytest.raises(PlanError, match="neither dirty nor computed"):
            get_backend("native").execute_update(plan, stripe, old)
        assert stripe == before

    def test_extended_schedule_is_cached_on_the_plan(self):
        from repro.engine.backends.native import _update_schedule
        from repro.engine.compile import choose_update_strategy

        code = get_code("HV", 7)
        pattern = tuple(
            sorted(r * code.cols + c for (r, c) in code.data_positions[:2])
        )
        _, plan = choose_update_strategy(code, pattern)
        self._updated_pair(code, 16, 2, seed=1)
        first = plan.derived("native_update_schedule", _update_schedule)
        self._updated_pair(code, 16, 2, seed=2)
        assert plan.derived("native_update_schedule", _update_schedule) is first
        # ...and never travels with a copy: its address is this array's.
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan and "native_update_schedule" not in vars(clone)

    def test_schedules_die_with_their_plans(self):
        """Pattern churn through a small plan cache leaves no schedule
        behind: the backend holds none, the evicted plans held theirs."""
        from repro.engine.backends.native import _update_schedule
        from repro.engine.compile import PlanCache, choose_update_strategy

        code = get_code("HV", 7)
        cache = PlanCache(maxsize=4)
        backend = get_backend("native")
        schedules = []
        for start in range(12):
            cells = code.data_positions[start : start + 2]
            pattern = tuple(sorted(r * code.cols + c for r, c in cells))
            strategy, plan = choose_update_strategy(code, pattern, cache=cache)
            assert strategy == "rmw"
            stripe = code.random_stripe(element_size=16, seed=start)
            old = {slot: np.zeros(16, dtype=np.uint8) for slot in pattern}
            backend.execute_update(plan, stripe, old)
            schedule = plan.derived("native_update_schedule", _update_schedule)
            schedules.append(weakref.ref(schedule.enc))
            del plan, schedule
        gc.collect()
        alive = sum(ref() is not None for ref in schedules)
        assert alive <= len(cache) == 4
        assert not vars(backend)  # no per-backend table to grow

    def test_rejects_non_update_plans_and_missing_preimages(self):
        from repro.engine.compile import choose_update_strategy

        code = get_code("HV", 7)
        stripe = code.random_stripe(element_size=8, seed=0)
        backend = get_backend("native")
        encode_plan = compile_plan(code, "encode")
        with pytest.raises(InvalidParameterError, match="update"):
            backend.execute_update(encode_plan, stripe, {})
        pattern = tuple(
            sorted(r * code.cols + c for (r, c) in code.data_positions[:2])
        )
        _, plan = choose_update_strategy(code, pattern)
        with pytest.raises(InvalidParameterError, match="pre-image"):
            backend.execute_update(plan, stripe, {})

    def test_malformed_sums_are_refused(self):
        from repro.engine.compile import choose_update_strategy

        code = get_code("HV", 7)
        stripe = code.random_stripe(element_size=8, seed=0)
        pattern = tuple(
            sorted(r * code.cols + c for (r, c) in code.data_positions[:2])
        )
        _, plan = choose_update_strategy(code, pattern)
        old = {slot: np.zeros(8, dtype=np.uint8) for slot in pattern}
        before = stripe.copy()
        for sums in (
            np.zeros((code.rows, code.cols), np.uint8),
            np.zeros((code.rows, code.cols), np.int64),
            np.zeros(code.rows * code.cols - 1, np.uint32),
        ):
            with pytest.raises(InvalidParameterError, match="sums"):
                get_backend("native").execute_update(plan, stripe, old, sums=sums)
            assert not sums.any()
        assert stripe == before

    def test_filestore_native_flush_matches_python_store(self):
        """A cached native-engine store lands the same bytes (data and
        parity) as the write-through python oracle."""
        code = get_code("HV", 11)
        reference = FileStore(code, element_size=32, engine="python")
        store = FileStore(
            code, element_size=32, engine="native", cache_stripes=2
        )
        rng = np.random.default_rng(7)
        for i in range(12):
            offset = int(rng.integers(0, 4)) * 32
            payload = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
            reference.write(offset, payload)
            store.write(offset, payload)
        store.flush()
        assert store.stats.kernel_invocations >= 1
        for a, b in zip(reference.stripes, store.stripes):
            assert a == b


ENGINES = ["python", "fused"] + (["native"] if NATIVE_AVAILABLE else [])
INTERFACE_CODES = [
    (name, p) for name in (*EVALUATED_CODE_NAMES, "EVENODD") for p in (5, 7)
]


@pytest.mark.parametrize("name,p", INTERFACE_CODES, ids=lambda v: str(v))
class TestOneInterface:
    """Every object ``resolve_backend`` returns — the chain-walking
    oracle and each kernel backend — answers encode, decode, gather and
    update with the same bytes, and no caller needs to know which."""

    @staticmethod
    def each(fn):
        """``fn(engine object)`` per engine, all results equal; one."""
        results = [fn(resolve_backend(engine)) for engine in ENGINES]
        for result in results[1:]:
            assert result == results[0]
        return results[0]

    def test_encode(self, name, p):
        code = get_code(name, p)
        reference = code.random_stripe(element_size=16, seed=p)

        def encode(backend):
            stripe = reference.copy()
            for pos in code.parity_positions:
                stripe.data[pos] = 0
            backend.encode(code, stripe)
            return stripe

        assert self.each(encode) == reference

    def test_decode_two_disks(self, name, p, monkeypatch):
        code = get_code(name, p)
        reference = code.random_stripe(element_size=16, seed=p + 1)
        pattern = tuple(
            r * code.cols + c for r in range(code.rows) for c in (0, 1)
        )
        if (name, p) == ("EVENODD", 5):  # peeling stalls: elimination finishes
            erased = code.disk_cells(0) + code.disk_cells(1)
            assert peel_schedule(code.equations, erased).stuck
        assert compile_plan(code, "decode", pattern).outputs
        python_decodes = []
        oracle = type(code)._decode_python

        def counted(self, stripe):
            python_decodes.append(stripe)
            return oracle(self, stripe)

        monkeypatch.setattr(type(code), "_decode_python", counted)

        def decode(backend):
            stripe = reference.copy()
            stripe.erase_disks([0, 1])
            report = backend.decode(code, stripe)
            return stripe, report.recovered

        stripe, recovered = self.each(decode)
        assert stripe == reference
        assert recovered == 2 * code.rows
        assert len(python_decodes) == 1  # the oracle's own, no backend's

    def test_gather_of_a_read_plan(self, name, p):
        code = get_code(name, p)
        reference = code.random_stripe(element_size=16, seed=p + 2)
        stripe = reference.copy()
        stripe.erase_disks([0])
        stripe.mark_latent(code.data_positions[-1])
        erasure = tuple(np.flatnonzero(stripe.state).tolist())
        plan = compile_plan(code, "read", (erasure, erasure, ()))
        before = stripe.copy()

        def gather(backend):
            return bytes(np.ascontiguousarray(backend.gather(code, plan, stripe)))

        rows = self.each(gather)
        assert stripe == before  # gather writes no stripe
        assert rows == reference.flat_view()[list(plan.outputs)].tobytes()

    def test_update_over_three_stripes(self, name, p):
        code = get_code(name, p)
        rng = np.random.default_rng(p)
        cells = list(code.data_positions[1:4])
        plan = compile_plan(code, "update", cells)
        live = [code.random_stripe(element_size=16, seed=s) for s in range(3)]
        news = [
            {pos: rng.integers(0, 256, 16, dtype=np.uint8) for pos in cells}
            for _ in live
        ]

        def update(backend):
            stripes = [stripe.copy() for stripe in live]
            olds = []
            for stripe, new in zip(stripes, news):
                olds.append({plan.slot_of(pos): stripe.data[pos].copy() for pos in cells})
                for pos, value in new.items():
                    stripe.data[pos] = value
            backend.update(code, plan, stripes, olds, stats=IOStats(code.cols))
            return stripes

        for stripe, new in zip(live, news):
            code.update_elements(stripe, new)
        assert self.each(update) == live


def test_the_oracle_runs_no_plan_and_is_not_registered():
    code = get_code("HV", 5)
    stripe = code.random_stripe(element_size=8, seed=0)
    before = stripe.copy()
    with pytest.raises(InvalidParameterError, match="python"):
        resolve_backend("python").execute(compile_plan(code, "encode"), stripe)
    with pytest.raises(InvalidParameterError, match="python"):
        execute_plan(compile_plan(code, "encode"), stripe, backend="python")
    assert stripe == before
    with pytest.raises(InvalidParameterError, match="unknown backend"):
        get_backend("python")


class TestNoCompiler:
    """Without a C compiler, ``native`` fails where it is asked for —
    at construction — and ``auto`` resolves to ``fused``."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        from repro.engine.backends import native as native_mod

        monkeypatch.setattr(native_mod, "_KERNEL", False)

    def test_native_store_fails_at_construction(self):
        with pytest.raises(InvalidParameterError, match="unavailable"):
            FileStore(get_code("HV", 5), element_size=16, engine="native")

    def test_native_pool_fails_at_construction(self):
        from repro.service import VolumePool

        with pytest.raises(InvalidParameterError, match="unavailable"):
            VolumePool("HV", 5, num_stripes=4, element_size=16, num_shards=2,
                       engine="native")

    def test_auto_resolves_to_fused(self):
        assert resolve_backend("auto").name == "fused"
        store = FileStore(get_code("HV", 5), element_size=16, engine="auto")
        store.write(0, bytes(range(48)))
        assert store.read(0, 48) == bytes(range(48))
