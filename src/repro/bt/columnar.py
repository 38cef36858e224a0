"""Columnar swarm state: dense rows + bitmask piece books.

The object model keeps per-peer piece state in four Python ``set``
objects per :class:`~repro.bt.torrent.PieceBook` and answers every
serving question by walking peer object graphs.  At 10^5 peers the
sets dominate memory and the per-neighbor set intersections dominate
time.  This module provides the flat backend:

* :class:`ColumnarBook` — a drop-in ``PieceBook`` replacement that
  stores *completed*/*expected*/*wanted* as integer bitmasks (one bit
  per piece).  Predicates like ``needs_from`` become single ``&``
  operations.
* :class:`ColumnarState` — a per-swarm table mapping peer ids to dense
  row indexes with flat columns (peer object, book, liveness, sorted
  neighbor adjacency) that the protocol scans operate on wholesale
  instead of re-deriving neighbor lists from dicts of objects.
* **Holder columns** — ``ColumnarState.holders[p]`` is an int bitmask
  over rows whose book has completed piece ``p``: the
  Local-Rarest-First input (Sec. II-A).  The copies of ``p`` among a
  chooser's live neighbors are ``popcount(holders[p] & nb)``, with
  ``nb`` the chooser's live-neighbor row mask built at query time from
  ``adj_rows`` and ``alive``.  A completion sets one bit per row that
  holds the book (no neighbor walk); edge changes and deactivations
  need no availability work, since adjacency and liveness are read at
  query time; a row's bits are set at :meth:`ColumnarState.adopt` from
  the book's mask and cleared at :meth:`ColumnarState.release`, so a
  recycled row starts clean.

Trace neutrality is the hard contract: every fast path iterates
neighbors in the ``topology.sorted_neighbors()`` order, applies
predicates whose truth values provably equal the naive ones, and feeds
identical candidate lists to identical rng draws.  ``ColumnarBook``'s
set-returning views materialize sets whose *elements* equal the naive
live sets; every consumer in the tree is iteration-order-independent
(boolean predicates, membership tests, and min/sorted-pool/rng.choice
aggregations), which ``tests/test_columnar.py`` pins with full-trace
diffs across protocols and seeds.

Adoption happens in :meth:`repro.bt.swarm.Swarm.register` by mutating
``peer.book.__class__`` in place rather than swapping the object:
books are replaced after construction (``runner`` pre-seeds partial
books) and even *shared* between peers (the Sybil group pools one
book), so preserving object identity is what keeps every outstanding
reference coherent.  A shared book records every row that holds it
(``_rows``), so one completion reaches the holder columns of every
Sybil identity at once.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set, TYPE_CHECKING

from repro.bt.torrent import PieceBook

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.peer import Peer
    from repro.bt.swarm import Swarm

try:  # Python >= 3.10
    _popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - 3.9 fallback
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


#: ``_BYTE_BITS[b]`` = the set bit positions of byte ``b``, ascending.
_BYTE_BITS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1)
                   for byte in range(256))


def mask_bits(mask: int) -> Sequence[int]:
    """The bit positions of ``mask`` in ascending order.

    One table lookup per byte of the mask instead of one big-int
    operation per set bit; a one-byte mask is the table entry itself.
    The ascending order is part of the contract: LRF tie pools and the
    bootstrap draw consume these sequences in the order ``sorted()``
    gives the equivalent set.
    """
    if mask < 256:
        return _BYTE_BITS[mask]
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    return [base + bit
            for base, byte in zip(range(0, len(data) << 3, 8), data)
            for bit in _BYTE_BITS[byte]]


def mask_to_set(mask: int) -> Set[int]:
    """The set of bit positions in ``mask``."""
    return set(mask_bits(mask))


def set_to_mask(pieces) -> int:
    """Pack an iterable of piece indices into a bitmask."""
    mask = 0
    for piece in pieces:
        mask |= 1 << piece
    return mask


class ColumnarBook(PieceBook):
    """A ``PieceBook`` whose state is three bitmasks.

    Invariants mirror the set model exactly: ``missing = ~completed``,
    ``wanted = missing & ~expected``.  ``_rows`` are the
    :class:`ColumnarState` rows holding this book (several for a shared
    Sybil book, none while detached; row numbers, not a row bitmask, so
    a book costs O(1) memory however many rows the state has) and
    ``_holders`` is that state's holder-column list, which
    :meth:`add_completed` updates.
    Instances are normally produced by :func:`adopt_book`, which
    transmutes an existing ``PieceBook`` in place.
    """

    def __init__(self, torrent, initial_pieces=()):
        self.torrent = torrent
        self._cmask = 0
        self._emask = 0
        self._wmask = (1 << torrent.n_pieces) - 1
        self._ccount = 0
        self._rows: List[int] = []
        self._holders: Optional[List[int]] = None
        for piece in initial_pieces:
            self.add_completed(piece)

    # -- completed ------------------------------------------------------
    @property
    def completed(self) -> Set[int]:
        """Completed piece indices (materialized from the mask)."""
        return mask_to_set(self._cmask)

    def add_completed(self, piece: int) -> bool:
        self._check(piece)
        bit = 1 << piece
        self._emask &= ~bit
        if self._cmask & bit:
            return False
        self._cmask |= bit
        self._ccount += 1
        self._wmask &= ~bit
        holders = self._holders
        for row in self._rows:
            holders[piece] |= 1 << row
        return True

    def has(self, piece: int) -> bool:
        # No mask holds a bit at or above n_pieces, so only negative
        # indices (a ValueError for ``>>``) need the range guard.
        return piece >= 0 and bool(self._cmask >> piece & 1)

    @property
    def completed_count(self) -> int:
        return self._ccount

    @property
    def is_complete(self) -> bool:
        return self._ccount == self.torrent.n_pieces

    # -- expected -------------------------------------------------------
    def expect(self, piece: int) -> None:
        self._check(piece)
        bit = 1 << piece
        if not self._cmask & bit:
            self._emask |= bit
            self._wmask &= ~bit

    def unexpect(self, piece: int) -> None:
        # Out of range is a no-op, as in PieceBook (where such a piece
        # is never missing): no phantom wanted bit for a piece that
        # does not exist.
        if not 0 <= piece < self.torrent.n_pieces:
            return
        bit = 1 << piece
        self._emask &= ~bit
        if not self._cmask & bit:
            self._wmask |= bit

    def is_expected(self, piece: int) -> bool:
        return piece >= 0 and bool(self._emask >> piece & 1)

    # -- derived sets ---------------------------------------------------
    def missing(self) -> Set[int]:
        full = (1 << self.torrent.n_pieces) - 1
        return mask_to_set(full & ~self._cmask)

    def wanted(self) -> Set[int]:
        return mask_to_set(self._wmask)

    def needs_from(self, other_completed) -> Set[int]:
        wmask = self._wmask
        return {p for p in other_completed if wmask >> p & 1}

    def wants(self, piece: int) -> bool:
        return piece >= 0 and bool(self._wmask >> piece & 1)

    def _wanted_nonempty(self) -> bool:
        return bool(self._wmask)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ColumnarBook({self._ccount}/"
                f"{self.torrent.n_pieces} done, "
                f"{_popcount(self._emask)} expected)")


def adopt_book(book: PieceBook) -> ColumnarBook:
    """Transmute a ``PieceBook`` into a :class:`ColumnarBook` in place.

    The object identity is preserved on purpose: books get replaced
    after peer construction and shared across Sybil identities, so
    every outstanding reference must keep seeing the live state.
    Idempotent for books that are already columnar.
    """
    if isinstance(book, ColumnarBook):
        return book
    cmask = set_to_mask(book._completed)
    emask = set_to_mask(book._expected)
    wmask = set_to_mask(book._wanted)
    ccount = len(book._completed)
    del book._completed, book._expected, book._missing, book._wanted
    book.__class__ = ColumnarBook
    book._cmask = cmask
    book._emask = emask
    book._wmask = wmask
    book._ccount = ccount
    book._rows = []
    book._holders = None
    return book


class ColumnarState:
    """Dense per-peer rows with flat columns for wholesale scans.

    Rows are allocated at :meth:`adopt` (``Swarm.register``) and
    recycled at :meth:`release` (``Swarm.deregister``); ``alive``
    mirrors ``peer.active`` through ``Swarm.note_deactivated``, so a
    row filter on ``alive`` equals the ``neighbor_peers()`` activity
    filter at every scan instant.  Adjacency is kept as two parallel
    per-row lists — neighbor ids sorted lexicographically and their
    row indexes — matching ``topology.sorted_neighbors()`` order
    element for element.  ``holders[p]`` is the row bitmask of books
    holding piece ``p`` (dead rows included; liveness is applied at
    query time).
    """

    def __init__(self, swarm: "Swarm"):
        self.swarm = swarm
        self.n_pieces = swarm.torrent.n_pieces
        self.full_mask = (1 << self.n_pieces) - 1
        self.row_of: Dict[str, int] = {}
        self.ids: List[Optional[str]] = []
        self.objs: List[Optional["Peer"]] = []
        self.books: List[Optional[ColumnarBook]] = []
        self.alive: List[bool] = []
        self.adj_ids: List[List[str]] = []
        self.adj_rows: List[List[int]] = []
        self.holders: List[int] = [0] * self.n_pieces
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self.row_of)

    # ------------------------------------------------------------------
    # Lifecycle (driven by Swarm.register / note_deactivated /
    # deregister / rebrand)
    # ------------------------------------------------------------------
    def adopt(self, peer: "Peer") -> int:
        """Allocate a row for a registering peer, columnarize its
        book (idempotent on the book: a shared or rejoining book is
        transmuted once and reused) and set the row's holder bits."""
        pid = peer.id
        row = self.row_of.get(pid)
        if row is not None:
            return row
        book = adopt_book(peer.book)
        if self._free:
            row = self._free.pop()
            self.ids[row] = pid
            self.objs[row] = peer
            self.books[row] = book
            self.alive[row] = True
        else:
            row = len(self.ids)
            self.ids.append(pid)
            self.objs.append(peer)
            self.books.append(book)
            self.alive.append(True)
            self.adj_ids.append([])
            self.adj_rows.append([])
        self.row_of[pid] = row
        bit = 1 << row
        book._rows.append(row)
        book._holders = holders = self.holders
        for piece in mask_bits(book._cmask):
            holders[piece] |= bit
        return row

    def on_deactivated(self, peer: "Peer") -> None:
        """Mirror ``active = False`` the instant it happens."""
        row = self.row_of.get(peer.id)
        if row is not None:
            self.alive[row] = False

    def release(self, peer_id: str) -> None:
        """Free a departed peer's row (edges were already severed by
        ``topology.remove_peer``).  The book keeps its masks and stays
        fully functional detached — metrics and late ``unexpect`` calls
        read it after deregistration."""
        row = self.row_of.pop(peer_id, None)
        if row is None:
            return
        book = self.books[row]
        book._rows.remove(row)
        clear = ~(1 << row)
        holders = self.holders
        for piece in mask_bits(book._cmask):
            holders[piece] &= clear
        self.ids[row] = None
        self.objs[row] = None
        self.books[row] = None
        self.alive[row] = False
        self.adj_ids[row].clear()
        self.adj_rows[row].clear()
        self._free.append(row)

    # ------------------------------------------------------------------
    # Topology events (Topology.on_edge_added/_removed, hooked by Swarm)
    # ------------------------------------------------------------------
    def on_edge_added(self, a: str, b: str) -> None:
        row_a = self.row_of.get(a)
        row_b = self.row_of.get(b)
        if row_a is None or row_b is None:
            return
        self._insert(row_a, b, row_b)
        self._insert(row_b, a, row_a)

    def on_edge_removed(self, a: str, b: str) -> None:
        row_a = self.row_of.get(a)
        row_b = self.row_of.get(b)
        if row_a is not None:
            self._remove(row_a, b)
        if row_b is not None:
            self._remove(row_b, a)

    def _insert(self, row: int, nid: str, nrow: int) -> None:
        ids = self.adj_ids[row]
        # bisect has no key= before 3.10; the parallel-list insert is
        # the portable equivalent.
        pos = bisect_left(ids, nid)
        if pos < len(ids) and ids[pos] == nid:
            return
        ids.insert(pos, nid)
        self.adj_rows[row].insert(pos, nrow)

    def _remove(self, row: int, nid: str) -> None:
        ids = self.adj_ids[row]
        pos = bisect_left(ids, nid)
        if pos < len(ids) and ids[pos] == nid:
            del ids[pos]
            del self.adj_rows[row][pos]

    # ------------------------------------------------------------------
    # Wholesale scans (trace-equal to the naive object walks)
    # ------------------------------------------------------------------
    def has_provider(self, peer: "Peer") -> bool:
        """Does any live neighbor hold a piece ``peer`` wants?

        Equals ``any(wanted & p.book.completed for p in
        peer.neighbor_peers())``.
        """
        row = self.row_of.get(peer.id)
        if row is None:
            return False
        wmask = peer.book._wmask
        books = self.books
        alive = self.alive
        for nrow in self.adj_rows[row]:
            if alive[nrow] and books[nrow]._cmask & wmask:
                return True
        return False

    def interested_ids(self, peer: "Peer") -> List[str]:
        """Live neighbors wanting >=1 of ``peer``'s completed pieces,
        in sorted-id order (equals the naive ``interested_neighbors``
        fallback element for element)."""
        row = self.row_of.get(peer.id)
        if row is None:
            return []
        cmask = peer.book._cmask
        books = self.books
        alive = self.alive
        adj_rows = self.adj_rows[row]
        return [nid
                for pos, nid in enumerate(self.adj_ids[row])
                if alive[nrow := adj_rows[pos]]
                and books[nrow]._wmask & cmask]

    def live_neighbor_mask(self, peer: "Peer") -> int:
        """Row bitmask of ``peer``'s live neighbors (0 without a
        row): the ``nb`` that holder columns are ANDed with."""
        row = self.row_of.get(peer.id)
        if row is None:
            return 0
        alive = self.alive
        nb = 0
        for nrow in self.adj_rows[row]:
            if alive[nrow]:
                nb |= 1 << nrow
        return nb

    def availability(self, peer: "Peer", cand_mask: int
                     ) -> Dict[int, int]:
        """``{piece: copies among live neighbors}`` for the candidate
        pieces, keyed in ascending piece order, read from the holder
        columns.  Equals the naive
        :func:`repro.bt.piece_selection.availability` over
        ``peer.neighbor_peers()``."""
        nb = self.live_neighbor_mask(peer)
        holders = self.holders
        return {piece: _popcount(holders[piece] & nb)
                for piece in mask_bits(cand_mask)}

    def live_neighbors(self, peer: "Peer"):
        """Live neighbor ``Peer`` objects in sorted-id order (equals
        ``peer.neighbor_peers()``)."""
        row = self.row_of.get(peer.id)
        if row is None:
            return []
        objs = self.objs
        alive = self.alive
        return [objs[nrow] for nrow in self.adj_rows[row]
                if alive[nrow]]

    # ------------------------------------------------------------------
    # Self-check (the churn property test runs this after every event)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert rows, liveness, adjacency, masks and holder columns
        all equal a from-scratch rebuild from the object model."""
        swarm = self.swarm
        assert set(self.row_of) == set(swarm.peers), (
            f"rows {sorted(self.row_of)} != peers "
            f"{sorted(swarm.peers)}")
        topology = swarm.topology
        for pid, row in self.row_of.items():
            peer = swarm.peers[pid]
            assert self.ids[row] == pid
            assert self.objs[row] is peer
            book = peer.book
            assert isinstance(book, ColumnarBook), (
                f"{pid} book not adopted: {type(book).__name__}")
            assert self.books[row] is book
            assert self.alive[row] == peer.active, (
                f"alive[{pid}]={self.alive[row]} != "
                f"active={peer.active}")
            full = self.full_mask
            assert book._ccount == _popcount(book._cmask)
            assert book._cmask & book._emask == 0
            assert book._wmask == full & ~book._cmask & ~book._emask, (
                f"{pid} wanted mask diverged")
            expected_adj = topology.sorted_neighbors(pid) \
                if pid in topology else []
            assert self.adj_ids[row] == list(expected_adj), (
                f"adj[{pid}] {self.adj_ids[row]} != {expected_adj}")
            assert [self.ids[nrow] for nrow in self.adj_rows[row]] \
                == self.adj_ids[row], f"adj rows of {pid} diverged"
        live_rows = len(self.row_of)
        assert live_rows + len(self._free) == len(self.ids)
        holders = [0] * self.n_pieces
        rows_of: Dict[ColumnarBook, List[int]] = {}
        for row in self.row_of.values():
            book = self.books[row]
            rows_of.setdefault(book, []).append(row)
            for piece in mask_bits(book._cmask):
                holders[piece] |= 1 << row
        for piece, (got, want) in enumerate(zip(self.holders, holders)):
            assert got == want, (
                f"holders[{piece}] {got:#x} != rebuild {want:#x}")
        for row in self.row_of.values():
            book = self.books[row]
            assert sorted(book._rows) == sorted(rows_of[book]), (
                f"rows of {self.ids[row]}'s book diverged")
            assert book._holders is self.holders
