"""Liberation-style minimum-density RAID-6 code (Plank, FAST'08).

The paper's background lists Liberation Codes among the XOR-efficient
MDS baselines.  Their defining trait is *minimum density*: across the
Q drive's bit matrices they spend exactly ``k·w + k - 1`` ones — the
proven lower bound for an MDS RAID-6 bit-matrix code — which buys
near-optimal update complexity (``2 + (k-1)/(k·w)`` parity-bit updates
per data bit, against Cauchy RS's ~3+).

Construction (re-derived empirically to match Plank's blueprint, since
the original paper is not available offline; DESIGN.md §5 documents
the method):  a stripe has ``w = p`` packet rows (p prime) over ``k``
data disks plus P and Q.  P is plain row parity.  Data disk ``j``
contributes to Q along the wrapped diagonal ``σ^j`` (packet ``a``
feeds ``q_{<a+j>_p}``), and every disk except the last adds **one**
extra bit: ``q_r`` with ``r = <j/2>_p`` also absorbs packet
``<r - j + 1>_p`` of disk ``j``.  The ``<j/2>_p`` row — note
``(p+1)/2`` is the inverse of 2 — is what makes every two-column
erasure decodable; the exhaustive tests verify MDS for every
``k <= p`` at every evaluated prime.
"""

from __future__ import annotations

from functools import cached_property

from ..exceptions import InvalidParameterError
from ..utils import mod_div
from .base import ArrayCode, ElementKind, ParityChain


class LiberationCode(ArrayCode):
    """Minimum-density bit-matrix RAID-6 over ``k`` data disks, w = p."""

    name = "Liberation"
    min_p = 3

    def __init__(self, p: int, k: int | None = None) -> None:
        super().__init__(p)
        self.k = self.p if k is None else k
        if not 2 <= self.k <= self.p:
            raise InvalidParameterError(
                f"k must be in 2..{self.p}, got {self.k}"
            )

    @cached_property
    def rows(self) -> int:
        return self.p

    @cached_property
    def cols(self) -> int:
        return self.k + 2

    @property
    def p_disk(self) -> int:
        return self.k

    @property
    def q_disk(self) -> int:
        return self.k + 1

    def _build_chains(self) -> list[ParityChain]:
        p, k = self.p, self.k
        chains: list[ParityChain] = []
        for i in range(p):
            members = tuple((i, j) for j in range(k))
            chains.append(ParityChain(ElementKind.ROW, (i, self.p_disk), members))
        q_members: list[set[tuple[int, int]]] = [
            {((i - j) % p, j) for j in range(k)} for i in range(p)
        ]
        for j in range(k - 1):  # one extra bit per disk except the last
            r = mod_div(j, 2, p)
            q_members[r].add(((r - j + 1) % p, j))
        for i in range(p):
            chains.append(
                ParityChain(
                    ElementKind.Q, (i, self.q_disk), tuple(sorted(q_members[i]))
                )
            )
        return chains

    def __repr__(self) -> str:
        return f"LiberationCode(p={self.p}, k={self.k})"
