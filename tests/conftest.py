"""Shared fixtures: code instances and parameter grids.

Exhaustive structural tests (MDS over all disk pairs, planner
optimality) run on small primes; hypothesis property tests randomize
within those.  The ``all_codes`` / ``evaluated`` fixtures are
parametrized so every test automatically covers every code.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

import repro.engine.backends.fused as fused
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

#: Every XOR array code class in the package (Cauchy RS takes the data
#: disk count as its registry parameter; everything else a prime).
ALL_CODE_CLASSES = (
    HVCode,
    RDPCode,
    XCode,
    HDPCode,
    HCode,
    EvenOddCode,
    PCode,
    LiberationCode,
    CauchyRSCode,
)

#: The paper's five evaluated codes.
EVALUATED_CLASSES = (RDPCode, HDPCode, XCode, HCode, HVCode)

#: Primes small enough for exhaustive structural checks.
SMALL_PRIMES = (5, 7, 11)

#: The ``vector`` case of an engine sweep: the numpy kernels cut into
#: one-word tiles — ``fused`` with :data:`FUSED_TILE_BYTES` shrunk to
#: 8, so every plan runs across many tiles (per-tile temporaries,
#: full-width ``gather`` scratch), which no element under 128 KiB
#: reaches at the real tile size.
VECTOR = pytest.param("fused", id="vector", marks=pytest.mark.narrow_tiles)


#: Points ``XDG_CACHE_HOME`` at a directory of the run's own for the
#: whole session, so the native kernel's build cache never lands in the
#: user's home and each session builds the kernel once.
_SESSION_ENV = pytest.MonkeyPatch()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "narrow_tiles: run the fused backend with one-word tiles"
    )
    # A hook, not a fixture: test modules resolve backends at import,
    # during collection, before any fixture runs.
    _SESSION_ENV.setenv("XDG_CACHE_HOME", tempfile.mkdtemp(prefix="repro-test-cache-"))


def pytest_unconfigure(config):
    shutil.rmtree(os.environ["XDG_CACHE_HOME"], ignore_errors=True)
    _SESSION_ENV.undo()


@pytest.fixture(autouse=True)
def _narrow_tiles(request, monkeypatch):
    if request.node.get_closest_marker("narrow_tiles"):
        monkeypatch.setattr(fused, "FUSED_TILE_BYTES", 8)


@pytest.fixture(params=ALL_CODE_CLASSES, ids=lambda cls: cls.name)
def code_class(request):
    """Each XOR code class in turn."""
    return request.param


@pytest.fixture
def code(code_class):
    """Each XOR code instantiated at p=7."""
    return code_class(7)


@pytest.fixture(params=EVALUATED_CLASSES, ids=lambda cls: cls.name)
def evaluated_code(request):
    """Each of the paper's five evaluated codes at p=7."""
    return request.param(7)


@pytest.fixture
def hv7():
    return HVCode(7)


@pytest.fixture
def hv13():
    return HVCode(13)
