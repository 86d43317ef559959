"""The parity-chain framework shared by every XOR array code.

A RAID-6 XOR array code is fully described by (1) a grid shape and
(2) a list of *parity chains*: each chain names one parity cell and the
set of member cells whose XOR it stores.  Everything else the paper
measures — encode cost, update penalty, partial-stripe-write I/O,
recovery I/O, recovery-chain parallelism — is derived mechanically from
the chains, so each concrete code class only has to state its layout.

Members of a chain may themselves be parity cells (RDP's diagonal
chains contain row-parity cells; HDP's horizontal chains contain the
anti-diagonal parity), so encoding topologically orders the chains and
update penalties follow the dependency closure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from ..array.stripe import ERASED, Stripe
from ..exceptions import (
    DecodeError,
    InvalidParameterError,
    LayoutError,
    UnrecoverableFailureError,
)
from ..recovery.gauss import gaussian_decode
from ..utils import RandomState, require_prime
from ..xor.equations import ParityCheckSystem

#: A cell coordinate ``(row, col)``, 0-based.
Position = tuple[int, int]


class ElementKind(str, Enum):
    """What a stripe cell holds.

    ``DATA`` cells carry user bytes; every other kind is a parity
    flavor (the flavor matters for reporting and for planners that
    prefer, e.g., horizontal chains for degraded reads).
    """

    DATA = "data"
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    DIAGONAL = "diagonal"
    ANTIDIAGONAL = "anti-diagonal"
    ROW = "row"
    Q = "q"

    @property
    def is_parity(self) -> bool:
        return self is not ElementKind.DATA

    @property
    def short_label(self) -> str:
        """One/two-letter label for layout pretty-printing."""
        return {
            ElementKind.DATA: "D",
            ElementKind.HORIZONTAL: "H",
            ElementKind.VERTICAL: "V",
            ElementKind.DIAGONAL: "Dg",
            ElementKind.ANTIDIAGONAL: "A",
            ElementKind.ROW: "R",
            ElementKind.Q: "Q",
        }[self]


@dataclass(frozen=True)
class ParityChain:
    """One parity cell and the member cells whose XOR it stores.

    The invariant a valid stripe satisfies is
    ``stripe[parity] == XOR(stripe[m] for m in members)``, i.e. the
    XOR over ``equation_cells`` is zero.
    """

    kind: ElementKind
    parity: Position
    members: tuple[Position, ...]

    def __post_init__(self) -> None:
        if not self.kind.is_parity:
            raise LayoutError("a parity chain's kind must be a parity kind")
        if self.parity in self.members:
            raise LayoutError(f"chain parity {self.parity} listed among its members")
        if len(set(self.members)) != len(self.members):
            raise LayoutError(f"chain at {self.parity} has duplicate members")

    @cached_property
    def equation_cells(self) -> frozenset[Position]:
        """All cells of the XOR-to-zero equation (members + parity);
        built once per chain, the planners ask for it in their loops."""
        return frozenset(self.members) | {self.parity}

    @property
    def length(self) -> int:
        """Chain length as the paper counts it: members + the parity."""
        return len(self.members) + 1


@dataclass
class DecodeReport:
    """How a :meth:`ArrayCode.decode` call succeeded.

    Attributes
    ----------
    peeled:
        Cells recovered by iterative chain peeling, in recovery order.
    rounds:
        Number of parallel peeling rounds used (the paper's longest
        recovery chain ``Lc`` for double-disk failures).
    gaussian:
        Cells that required the Gaussian reference decoder (non-empty
        only for codes whose chains alone cannot peel the pattern,
        e.g. EVENODD).
    """

    peeled: list[Position] = field(default_factory=list)
    rounds: int = 0
    gaussian: list[Position] = field(default_factory=list)

    @property
    def recovered(self) -> int:
        return len(self.peeled) + len(self.gaussian)


class ArrayCode(ABC):
    """Base class for XOR array codes over a prime modulus ``p``.

    Subclasses define the grid (:attr:`rows`, :attr:`cols`) and the
    parity chains (:meth:`_build_chains`); this base derives the
    layout, encoder, decoders, and all cost models from them.
    """

    #: Human-readable code name, e.g. ``"HV"`` — set by subclasses.
    name: str = "abstract"
    #: Smallest prime the construction supports.
    min_p: int = 5
    #: Most array codes are built over a prime modulus; bit-matrix
    #: codes (Cauchy RS, Liberation over non-prime word sizes) opt out.
    requires_prime: bool = True

    def __init__(self, p: int) -> None:
        if self.requires_prime:
            self.p = require_prime(p, minimum=self.min_p)
        else:
            if not isinstance(p, int) or p < 2:
                raise InvalidParameterError(f"parameter must be an int >= 2, got {p}")
            self.p = p

    # -- subclass responsibilities ---------------------------------------------

    @property
    @abstractmethod
    def rows(self) -> int:
        """Number of element rows in a stripe."""

    @property
    @abstractmethod
    def cols(self) -> int:
        """Number of disks (columns) a stripe spans."""

    @abstractmethod
    def _build_chains(self) -> list[ParityChain]:
        """Construct every parity chain of one stripe."""

    # -- derived layout ------------------------------------------------------------

    @cached_property
    def chains(self) -> tuple[ParityChain, ...]:
        """All parity chains, validated against the grid."""
        chains = tuple(self._build_chains())
        seen_parity: set[Position] = set()
        for chain in chains:
            for pos in chain.equation_cells:
                r, c = pos
                if not (0 <= r < self.rows and 0 <= c < self.cols):
                    raise LayoutError(
                        f"{self.name}: chain cell {pos} outside "
                        f"{self.rows}x{self.cols} grid"
                    )
            if chain.parity in seen_parity:
                raise LayoutError(
                    f"{self.name}: two chains share parity cell {chain.parity}"
                )
            seen_parity.add(chain.parity)
        return chains

    @cached_property
    def chain_at(self) -> dict[Position, ParityChain]:
        """Map from parity cell to its chain."""
        return {chain.parity: chain for chain in self.chains}

    @cached_property
    def layout(self) -> dict[Position, ElementKind]:
        """Kind of every cell in the stripe grid."""
        grid: dict[Position, ElementKind] = {
            (r, c): ElementKind.DATA
            for r in range(self.rows)
            for c in range(self.cols)
        }
        for chain in self.chains:
            grid[chain.parity] = chain.kind
        return grid

    @cached_property
    def data_positions(self) -> tuple[Position, ...]:
        """Data cells in row-major order — the logical address order.

        Continuous partial-stripe writes walk this sequence, exactly as
        the paper's traces walk "continuous data elements".
        """
        return tuple(
            pos for pos in sorted(self.layout) if self.layout[pos] is ElementKind.DATA
        )

    @cached_property
    def parity_positions(self) -> tuple[Position, ...]:
        return tuple(sorted(self.chain_at))

    def kind(self, pos: Position) -> ElementKind:
        return self.layout[pos]

    def is_data(self, pos: Position) -> bool:
        return self.layout[pos] is ElementKind.DATA

    @property
    def num_disks(self) -> int:
        return self.cols

    @property
    def data_elements_per_stripe(self) -> int:
        return len(self.data_positions)

    @property
    def storage_efficiency(self) -> float:
        """Fraction of the stripe that stores user data."""
        return self.data_elements_per_stripe / (self.rows * self.cols)

    def is_mds_capacity(self) -> bool:
        """True when parity overhead equals exactly two disks' worth."""
        return len(self.parity_positions) == 2 * self.rows

    @cached_property
    def chains_through(self) -> dict[Position, tuple[ParityChain, ...]]:
        """For every cell, the chains that list it as a *member*."""
        through: dict[Position, list[ParityChain]] = {
            pos: [] for pos in self.layout
        }
        for chain in self.chains:
            for member in chain.members:
                through[member].append(chain)
        return {pos: tuple(cs) for pos, cs in through.items()}

    # -- encoding ---------------------------------------------------------------

    @cached_property
    def encode_order(self) -> tuple[ParityChain, ...]:
        """Chains topologically sorted by parity-member dependencies.

        A chain whose members include another chain's parity cell must
        be encoded after it (RDP diagonals after row parities, HDP
        horizontals after anti-diagonals).
        """
        parity_cells = set(self.chain_at)
        remaining = list(self.chains)
        done: set[Position] = set()
        ordered: list[ParityChain] = []
        while remaining:
            progress = False
            still: list[ParityChain] = []
            for chain in remaining:
                deps = [m for m in chain.members if m in parity_cells]
                if all(d in done for d in deps):
                    ordered.append(chain)
                    done.add(chain.parity)
                    progress = True
                else:
                    still.append(chain)
            if not progress:
                raise LayoutError(
                    f"{self.name}: cyclic parity dependencies, no encode order"
                )
            remaining = still
        return tuple(ordered)

    @cached_property
    def encode_fanout(self) -> tuple[tuple[int, ...], ...]:
        """For every cell slot ``r * cols + c``, the indices into
        :attr:`encode_order` of the chains that list it as a member.

        What a changed cell feeds: the update compiler walks only these
        chains instead of scanning every chain for dirty members.
        """
        fed: list[list[int]] = [[] for _ in range(self.rows * self.cols)]
        for index, chain in enumerate(self.encode_order):
            for r, c in chain.members:
                fed[r * self.cols + c].append(index)
        return tuple(tuple(indices) for indices in fed)

    def encode(self, stripe: Stripe, *, engine: str = "python") -> None:
        """Fill every parity cell of ``stripe`` from its members, on
        whatever ``resolve_backend(engine)`` returns: the ``"python"``
        oracle walks :attr:`encode_order`, a kernel backend runs the
        cached ``encode`` plan."""
        self._check_stripe(stripe)
        from ..engine import resolve_backend

        resolve_backend(engine).encode(self, stripe)

    def verify(self, stripe: Stripe) -> bool:
        """True iff every parity equation holds and nothing is erased."""
        self._check_stripe(stripe)
        if ERASED in stripe.state:
            return False
        return all(
            not np.any(stripe.xor_of(chain.equation_cells)) for chain in self.chains
        )

    def failing_equations(self, stripe: Stripe) -> list[ParityChain]:
        """The chains whose XOR-to-zero equation does not hold."""
        self._check_stripe(stripe)
        return [
            chain
            for chain in self.chains
            if np.any(stripe.xor_of(chain.equation_cells))
        ]

    def locate_corruption(self, stripe: Stripe) -> Position | None:
        """Find a single silently-corrupted element, if one exists.

        Unlike an erasure, silent corruption (a bit flip the disk did
        not report) gives no location — but it does give a *syndrome*:
        exactly the equations through the bad cell fail.  If the
        failing set matches the equation membership of exactly one
        cell, that cell is the culprit and :meth:`repair_corruption`
        can fix it.  Returns None on a clean stripe; raises
        :class:`DecodeError` when the syndrome matches no single cell
        (multiple corruptions or ambiguity).
        """
        failing = self.failing_equations(stripe)
        if not failing:
            return None
        failing_set = {chain.parity for chain in failing}
        candidates = [
            pos
            for pos in self.layout
            if {c.parity for c in self.chains_through[pos]}
            | ({pos} if pos in self.chain_at else set())
            == failing_set
        ]
        if len(candidates) != 1:
            raise DecodeError(
                f"{self.name}: corruption syndrome of {len(failing)} failing "
                f"equations matches {len(candidates)} cells, not 1"
            )
        return candidates[0]

    def repair_corruption(self, stripe: Stripe) -> Position | None:
        """Locate and repair a single corrupted element in place."""
        pos = self.locate_corruption(stripe)
        if pos is None:
            return None
        stripe.erase(pos)
        self.decode(stripe)
        return pos

    def _check_stripe(self, stripe: Stripe) -> None:
        if stripe.rows != self.rows or stripe.cols != self.cols:
            raise LayoutError(
                f"stripe is {stripe.rows}x{stripe.cols}, "
                f"{self.name}(p={self.p}) needs {self.rows}x{self.cols}"
            )

    def make_stripe(self, element_size: int = 16) -> Stripe:
        """An all-zero stripe with this code's dimensions."""
        return Stripe(self.rows, self.cols, element_size)

    def random_stripe(self, element_size: int = 16, seed: "RandomState" = None) -> Stripe:
        """A stripe with random data elements and valid parity.

        ``seed`` accepts an int, ``None``, or a threaded generator
        (:func:`repro.utils.resolve_rng` semantics).
        """
        stripe = self.make_stripe(element_size)
        stripe.fill_random(self.data_positions, seed=seed)
        self.encode(stripe)
        return stripe

    # -- equations / linear-algebra view ----------------------------------------------

    @cached_property
    def equations(self) -> tuple[frozenset[Position], ...]:
        """The XOR-to-zero cell sets, one per chain."""
        return tuple(chain.equation_cells for chain in self.chains)

    @cached_property
    def parity_check_system(self) -> ParityCheckSystem:
        positions = [
            (r, c) for r in range(self.rows) for c in range(self.cols)
        ]
        return ParityCheckSystem(positions, self.equations)

    def can_recover(self, erased: Iterable[Position]) -> bool:
        """Capability oracle: is this erasure pattern decodable?"""
        return self.parity_check_system.can_recover(erased)

    # -- structural metadata (the static certifier's inputs) -------------------------

    def disk_cells(self, col: int) -> tuple[Position, ...]:
        """Every cell on disk ``col``, top to bottom.

        The erasure pattern of a whole-disk failure; the certifier
        feeds unions of these to the rank oracle and to the structural
        peeling scheduler.
        """
        if not 0 <= col < self.cols:
            raise InvalidParameterError(f"disk {col} outside 0..{self.cols - 1}")
        return tuple((r, col) for r in range(self.rows))

    def chain_length_multiset(self) -> dict[ElementKind, tuple[int, ...]]:
        """All chain lengths per parity flavor, sorted.

        Unlike :meth:`chain_lengths` (which collapses a flavor to its
        maximum), this keeps the full multiset so a claim like "every
        HV chain has length ``p - 2``" is checkable exactly.
        """
        lengths: dict[ElementKind, list[int]] = {}
        for chain in self.chains:
            lengths.setdefault(chain.kind, []).append(chain.length)
        return {kind: tuple(sorted(ls)) for kind, ls in lengths.items()}

    def parity_load(self) -> tuple[int, ...]:
        """Parity elements per disk — the static load-balance vector."""
        counts = [0] * self.cols
        for pos in self.parity_positions:
            counts[pos[1]] += 1
        return tuple(counts)

    # -- decoding ---------------------------------------------------------------

    def decode(
        self,
        stripe: Stripe,
        failed_disks: Sequence[int] | None = None,
        *,
        engine: str = "python",
    ) -> DecodeReport:
        """Recover every erased cell of ``stripe`` in place.

        ``failed_disks`` may pre-erase whole columns for convenience.
        Decoding first runs chain peeling (the fast structured path all
        the paper's codes use), then falls back to Gaussian elimination
        over the parity-check system for anything peeling cannot reach.

        ``resolve_backend(engine)`` does the work: the ``"python"``
        oracle runs :meth:`_decode_python`; a kernel backend runs the
        peel schedule compiled for this erasure pattern and hands the
        patterns peeling alone cannot finish to :meth:`_decode_python`.

        Raises :class:`UnrecoverableFailureError` when the pattern
        exceeds the code's capability.  The GF(2) rank oracle deciding
        that (:meth:`can_recover`) runs once, in front of the Python
        decoder only: a plan exists exactly for the patterns peeling
        recovers in full, so finding one is proof without elimination.
        """
        self._check_stripe(stripe)
        if failed_disks is not None:
            stripe.erase_disks(failed_disks)
        from ..engine import resolve_backend

        return resolve_backend(engine).decode(self, stripe)

    def _decode_python(self, stripe: Stripe) -> DecodeReport:
        """The reference decoder: rank oracle, peeling, then Gaussian."""
        erased = set(stripe.erased_positions())
        if not erased:
            return DecodeReport()
        if not self.can_recover(erased):
            raise UnrecoverableFailureError(
                f"{self.name}(p={self.p}): erasure pattern of {len(erased)} "
                f"cells is beyond the code's capability"
            )
        report = self._peel(stripe, erased)
        if erased:
            report.gaussian = gaussian_decode(self.parity_check_system, stripe)
        return report

    def _peel(self, stripe: Stripe, erased: set[Position]) -> DecodeReport:
        """Iterative chain peeling; mutates ``erased`` as cells recover."""
        report = DecodeReport()
        while erased:
            solvable: list[tuple[Position, ParityChain]] = []
            claimed: set[Position] = set()
            for chain in self.chains:
                missing = [pos for pos in chain.equation_cells if pos in erased]
                if len(missing) == 1 and missing[0] not in claimed:
                    solvable.append((missing[0], chain))
                    claimed.add(missing[0])
            if not solvable:
                break
            report.rounds += 1
            # Recover the whole round against a snapshot: cells repaired
            # in this round must not feed each other, or the "parallel
            # rounds" count would be optimistic.
            snapshot = stripe.copy()
            for pos, chain in solvable:
                others = [c for c in chain.equation_cells if c != pos]
                stripe.set(pos, snapshot.xor_of(others))
                erased.discard(pos)
                report.peeled.append(pos)
        return report

    # -- update / write cost models -----------------------------------------------

    @cached_property
    def _direct_dependents(self) -> dict[Position, tuple[Position, ...]]:
        """parity cells whose chain directly contains each cell."""
        return {
            pos: tuple(chain.parity for chain in chains)
            for pos, chains in self.chains_through.items()
        }

    def update_targets(self, pos: Position) -> frozenset[Position]:
        """Parity cells that must be rewritten when ``pos`` changes.

        Follows the dependency closure: updating a data element dirties
        its chains' parities; if one of those parities is itself a
        member of another chain, that chain's parity is dirtied too
        (this is how HDP's 3-parity update cost arises).  Results are
        memoized — trace replay calls this for every written element.
        """
        cache = self.__dict__.setdefault("_update_targets_cache", {})
        cached = cache.get(pos)
        if cached is not None:
            return cached
        dirty: set[Position] = set()
        frontier = [pos]
        while frontier:
            cell = frontier.pop()
            for parity in self._direct_dependents[cell]:
                if parity not in dirty:
                    dirty.add(parity)
                    frontier.append(parity)
        result = frozenset(dirty)
        cache[pos] = result
        return result

    def update_complexity(self, pos: Position) -> int:
        """Number of parity writes one data-element update induces."""
        return len(self.update_targets(pos))

    def average_update_complexity(self) -> float:
        """Mean parity writes per data-element update over the stripe."""
        totals = [self.update_complexity(pos) for pos in self.data_positions]
        return sum(totals) / len(totals)

    def update_elements(
        self, stripe: Stripe, updates: dict[Position, object]
    ) -> frozenset[Position]:
        """Batched small-write path: overwrite several data elements.

        All deltas are absorbed in one pass over the chains, so a
        parity shared by several updated elements (HV's row sharing,
        the cross-row vertical sharing) is rewritten *once* instead of
        once per element.  Chains are processed in encode order so
        nested parities (RDP's diagonals over row parity, HDP's
        horizontal over anti-diagonal) see their members' deltas
        before computing their own.

        Returns the parity cells that were rewritten.
        """
        self._check_stripe(stripe)
        deltas: dict[Position, np.ndarray] = {}
        for pos, buf in updates.items():
            if not self.is_data(pos):
                raise LayoutError(f"{pos} is not a data element")
            new = np.asarray(buf, dtype=np.uint8)
            delta = stripe.get(pos) ^ new
            stripe.set(pos, new)
            deltas[pos] = delta
        return self.apply_parity_deltas(stripe, deltas)

    def apply_parity_deltas(
        self, stripe: Stripe, deltas: dict[Position, np.ndarray]
    ) -> frozenset[Position]:
        """Fold data-element deltas into every parity chain they touch.

        ``deltas`` maps already-written data cells to their
        ``old ⊕ new`` buffers (the dict is extended in place with the
        parity deltas as they are derived).  Each delta is XORed into the
        parity's slot of ``stripe.data`` whatever its flags, as the
        compiled fold does: an erased parity's zeroed slot ends up
        holding its delta.  This is the pure-Python oracle of the
        engine's ``update`` plans and ``FileStore``'s fold on
        ``engine="python"``.
        """
        rewritten: set[Position] = set()
        for chain in self.encode_order:
            chain_delta = None
            for member in chain.members:
                d = deltas.get(member)
                if d is None:
                    continue
                chain_delta = d.copy() if chain_delta is None else chain_delta ^ d
            if chain_delta is None or not chain_delta.any():
                continue
            stripe.data[chain.parity] ^= chain_delta
            deltas[chain.parity] = chain_delta
            rewritten.add(chain.parity)
        return frozenset(rewritten)

    # -- reporting -----------------------------------------------------------------

    def describe_layout(self) -> str:
        """ASCII rendering of the stripe layout (D/H/V/... labels)."""
        width = max(len(k.short_label) for k in ElementKind) + 1
        lines = []
        header = " " * 4 + "".join(f"d{c:<{width - 1}}" for c in range(self.cols))
        lines.append(header)
        for r in range(self.rows):
            cells = "".join(
                f"{self.layout[(r, c)].short_label:<{width}}" for c in range(self.cols)
            )
            lines.append(f"r{r:<3}{cells}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, disks={self.cols})"
