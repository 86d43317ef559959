"""The batched CRC-32 (:func:`repro.faults.checksum.crc_rows`) against
``zlib.crc32``, on every implementation it can run: the ``-march=native``
library (PCLMULQDQ fold where the host has it), the portable build
(table-driven), and the ``zlib`` fallback without a kernel.  A sidecar
value must never depend on which one ran."""

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.array.filestore import FileStore
from repro.codes.registry import available_codes, get_code
from repro.engine.backends import native
from repro.exceptions import InvalidParameterError
from repro.faults.checksum import CellSlots, crc_rows


@pytest.fixture(scope="module")
def portable_kernel():
    built = native._compile_kernel(((),))
    if isinstance(built, str):
        pytest.skip(f"portable kernel not built: {built}")
    return built


@pytest.fixture(params=["native", "portable", "zlib"])
def kernel(request, monkeypatch):
    """Which implementation :func:`crc_rows` runs on."""
    if request.param == "native":
        loaded = native._kernel()
        if loaded is None:
            pytest.skip(f"native kernel unavailable: {native.UNAVAILABLE_REASON}")
    elif request.param == "portable":
        loaded = request.getfixturevalue("portable_kernel")
    else:
        loaded = False
    monkeypatch.setattr(native, "_KERNEL", loaded)
    return request.param


class TestCrcRows:
    # ``kernel`` patches a module global once; every example shares it.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        length=st.one_of(st.integers(0, 63), st.integers(0, 9000)),
        offset=st.integers(1, 15),
        rows=st.integers(1, 4),
        picks=st.lists(st.integers(0, 3), max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_equals_zlib(self, kernel, length, offset, rows, picks, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, size=offset + rows * length, dtype=np.uint8)
        buf = raw[offset:].reshape(rows, length)  # rows start off 16-byte lines
        slots = [s % rows for s in picks]  # unsorted, repeated, maybe none
        out = crc_rows(buf, CellSlots(slots))
        assert out.shape == (rows,) and out.dtype == np.uint32
        for s in range(rows):
            assert out[s] == (zlib.crc32(buf[s]) if s in slots else 0)

    @pytest.mark.parametrize("length", [16, 64, 4096, 4097])
    def test_writes_only_the_named_entries(self, kernel, length):
        data = np.arange(3 * 4 * length, dtype=np.uint64).astype(np.uint8)
        data = data.reshape(3, 4, length)
        out = np.full((3, 4), 7, dtype=np.uint32)
        assert crc_rows(data, CellSlots([9, 2]), out) is out
        expected = np.full(12, 7, dtype=np.uint32)
        for s in (2, 9):
            expected[s] = zlib.crc32(data.reshape(12, length)[s])
        assert out.reshape(-1).tolist() == expected.tolist()

    def test_refuses_slots_and_dtypes_it_cannot_honour(self, kernel):
        buf = np.zeros((2, 3, 8), dtype=np.uint8)
        with pytest.raises(InvalidParameterError):
            CellSlots([1, -1])
        with pytest.raises(InvalidParameterError):
            crc_rows(buf, CellSlots([6]))  # six rows
        with pytest.raises(InvalidParameterError):
            crc_rows(buf, CellSlots([5]), np.zeros(3, dtype=np.uint32))
        with pytest.raises(InvalidParameterError):
            crc_rows(buf, CellSlots([0]), np.zeros(6, dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            crc_rows(buf.view(np.int8), CellSlots([0]))


class TestZeroCodeword:
    """A reserved stripe is all zero: its parity needs no encode and
    its sidecar is the CRC of a zero element in every cell."""

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("name", available_codes())
    def test_zero_stripe_verifies(self, name, p):
        code = get_code(name, p)
        assert code.verify(code.make_stripe(16))

    @pytest.mark.parametrize("name", available_codes())
    def test_reserved_sidecar_is_each_cells_crc(self, kernel, name):
        store = FileStore(get_code(name, 5), element_size=96, engine="auto")
        store.reserve(3)
        assert len(store.sidecar) == 3
        for stripe, crcs in zip(store.stripes, store.sidecar.stripes):
            cells = stripe.flat_view()
            assert crcs.reshape(-1).tolist() == [zlib.crc32(c) for c in cells]
        assert store.scrub() == []
        assert store.scrub_checksums(repair=False).clean
