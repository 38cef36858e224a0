"""Incremental swarm-level interest index.

Every upload decision in every protocol asks some variant of one
question: *which neighbors want a piece that some peer holds?*  The
naive answer is a set intersection per neighbor per decision
(``peer.book.wanted() & holder.book.completed``), which made the
protocol layer — payee scans, rechoke interest checks, rarest-first
counting — cost O(neighbors x pieces) on every pump while the
underlying books change only O(1) per transfer.

:class:`InterestIndex` inverts that: it maintains, incrementally,

* ``_wanters``  — piece -> {tracked peers that want it};
* ``_havers``   — piece -> {tracked peers that completed it};
* ``_rows``     — holder id -> {wanter id: |holder.completed ∩
  wanter.wanted|}, sparse (entries exist only while the count is
  positive), so *"is W interested in H"* is one dict lookup;
* ``_avail``    — chooser id -> {piece: copies among the chooser's
  tracked topology neighbors}, the Local-Rarest-First input.

Invalidation contract (who notifies the index, and when):

* **PieceBook** calls :meth:`on_wanted_added` / :meth:`on_wanted_removed`
  / :meth:`on_completed_added` from the three mutation points
  (``add_completed`` / ``expect`` / ``unexpect``) through the listener
  installed by :meth:`add_peer`.  ``add_completed`` emits
  ``wanted_removed`` *before* ``completed_added`` so a peer can never
  transiently appear interested in itself.
* **Topology** fires ``on_edge_added`` / ``on_edge_removed`` on every
  edge change (including :meth:`~repro.net.topology.Topology.remove_peer`,
  which fires them *before* the protocol-facing ``on_disconnect``
  callbacks, whose handlers re-enter with refills and pumps).
* **Swarm lifecycle**: ``Swarm.register`` and ``Swarm.rebrand`` call
  :meth:`add_peer`; every deactivation path (``leave``, ``crash``,
  ``whitewash``) calls :meth:`remove_peer` via
  ``Swarm.note_deactivated`` immediately after ``active = False`` —
  *before* transfer cancellations pump other peers — so the tracked
  set always equals the set of active registered peers, the same
  predicate ``Peer.neighbor_peers`` applies.  A whitewashing peer's
  book mutates while untracked (dropped sealed pieces are
  un-expected); :meth:`add_peer` re-snapshots the book on rebrand, so
  those silent mutations are absorbed exactly.
* **FlowController** reports pending-window boundary crossings through
  ``on_window_change``; the per-donor blocked set lives on the peer
  (``_flow_blocked``) and mirrors ``flow.eligible`` bit for bit.

Trace-neutrality argument: the index stores *counts of* — never
replacements for — the naive intersections, and every consumer keeps
iterating ``topology.sorted_neighbors()`` in the same order, applying
boolean predicates whose truth values provably equal the naive ones.
Candidate lists therefore come out identical element for element, no
rng draw moves, and a run with the index on is bit-identical to one
with it off (asserted by ``tests/test_interest_index.py`` over full
event traces and by the randomized-churn property test).

The naive fallbacks for every ``wanted() & ...`` predicate live here
(not in the protocol modules) on purpose: simlint rule SL010 flags
direct wanted-set intersections inside ``bt/protocols/`` so consumers
cannot quietly reintroduce the rescans.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Mapping,
    Optional,
    Set,
    TYPE_CHECKING,
)

from repro.bt.columnar import (
    ColumnarBook,
    _popcount,
    mask_bits,
    set_to_mask,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.peer import Peer
    from repro.bt.swarm import Swarm

#: Shared empty results so queries about untracked peers allocate
#: nothing.  Treat as read-only.
_EMPTY_ROW: Mapping[str, int] = {}
_EMPTY_IDS: frozenset = frozenset()


class InterestIndex:
    """Reverse interest maps for one swarm (see module docstring)."""

    def __init__(self, swarm: "Swarm"):
        self.swarm = swarm
        #: id -> Peer for every *active registered* peer.
        self._tracked: Dict[str, "Peer"] = {}
        self._wanters: Dict[int, Set[str]] = {}
        self._havers: Dict[int, Set[str]] = {}
        self._rows: Dict[str, Dict[str, int]] = {}
        self._avail: Dict[str, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Queries (the hot path: plain dict lookups, no allocation)
    # ------------------------------------------------------------------
    def tracks(self, peer_id: str) -> bool:
        """True while the peer is active and registered."""
        return peer_id in self._tracked

    def row(self, holder_id: str) -> Mapping[str, int]:
        """``{wanter_id: overlap}`` for peers interested in the holder.

        ``wanter in row`` is exactly ``bool(wanter.book.wanted() &
        holder.book.completed)`` for tracked peers; untracked holders
        return an empty mapping (matching the active-peer filter of
        the naive scans).
        """
        return self._rows.get(holder_id, _EMPTY_ROW)

    def wanters(self, piece: int) -> frozenset:
        """Tracked peers that currently want ``piece``."""
        return self._wanters.get(piece, _EMPTY_IDS)

    def wants(self, peer_id: str, piece: int) -> bool:
        """Does the (tracked) peer want ``piece``?"""
        return peer_id in self._wanters.get(piece, _EMPTY_IDS)

    def wants_any(self, peer_id: str, pieces: Iterable[int]) -> bool:
        """Does the (tracked) peer want at least one of ``pieces``?"""
        wanters = self._wanters
        for piece in pieces:
            if peer_id in wanters.get(piece, _EMPTY_IDS):
                return True
        return False

    def avail(self, chooser_id: str) -> Mapping[int, int]:
        """``{piece: copies}`` among the chooser's active neighbors
        (missing key = zero copies)."""
        return self._avail.get(chooser_id, _EMPTY_ROW)

    def tracked_peer(self, peer_id: str) -> Optional["Peer"]:
        """The peer while it is tracked (active and registered), else
        ``None``."""
        return self._tracked.get(peer_id)

    # ------------------------------------------------------------------
    # Peer lifecycle
    # ------------------------------------------------------------------
    def add_peer(self, peer: "Peer") -> None:
        """Start tracking a peer (registration or rebrand).

        Snapshots the live book — absorbing any mutations that
        happened while the peer was untracked — and builds its
        interest row, column and availability entries against every
        currently tracked peer.
        """
        pid = peer.id
        if pid in self._tracked:
            return
        book = peer.book
        wanted = _wanted_of(book)
        completed = _completed_of(book)
        tracked = self._tracked
        rows = self._rows
        row: Dict[str, int] = {}
        use_masks = isinstance(book, ColumnarBook)
        for other_id, other in tracked.items():
            other_book = other.book
            if use_masks and isinstance(other_book, ColumnarBook):
                # Same counts as the set intersections below, via
                # bitmask AND + popcount (no set materialization).
                count = _popcount(book._cmask & other_book._wmask)
                if count:
                    row[other_id] = count
                count = _popcount(other_book._cmask & book._wmask)
            else:
                count = len(book.completed & other_book.wanted())
                if count:
                    row[other_id] = count
                count = len(other_book.completed & book.wanted())
            if count:
                rows[other_id][pid] = count
        rows[pid] = row
        tracked[pid] = peer
        for piece in wanted:
            self._wanters.setdefault(piece, set()).add(pid)
        for piece in completed:
            self._havers.setdefault(piece, set()).add(pid)
        # Availability: peers are normally tracked before their first
        # edge exists (register/rebrand precede the connect loop), but
        # rebuild from the topology for robustness.
        avail = self._avail
        avail_row: Dict[int, int] = {}
        topology = self.swarm.topology
        if pid in topology:
            for nid in topology.neighbors(pid):
                other = tracked.get(nid)
                if other is None or other is peer:
                    continue
                for piece in _completed_of(other.book):
                    avail_row[piece] = avail_row.get(piece, 0) + 1
                other_row = avail[nid]
                for piece in completed:
                    other_row[piece] = other_row.get(piece, 0) + 1
        avail[pid] = avail_row
        book.set_listener(self, pid)

    def remove_peer(self, peer: "Peer") -> None:
        """Stop tracking a peer the moment it deactivates.

        Idempotent: the deregister path calls it again as a backstop.
        """
        pid = peer.id
        if self._tracked.pop(pid, None) is None:
            return
        book = peer.book
        book.set_listener(None, None)
        wanters = self._wanters
        for piece in _wanted_of(book):
            ids = wanters.get(piece)
            if ids is not None:
                ids.discard(pid)
        completed = _completed_of(book)
        havers = self._havers
        for piece in completed:
            ids = havers.get(piece)
            if ids is not None:
                ids.discard(pid)
        self._rows.pop(pid, None)
        for other_row in self._rows.values():
            other_row.pop(pid, None)
        self._avail.pop(pid, None)
        # The peer's edges are severed *after* deactivation (topology
        # removal fires for untracked endpoints and is ignored), so
        # its completed pieces leave the neighbors' counts here.
        topology = self.swarm.topology
        if completed and pid in topology:
            avail = self._avail
            for nid in topology.neighbors(pid):
                row = avail.get(nid)
                if row is not None:
                    _dec_all(row, completed)

    # ------------------------------------------------------------------
    # PieceBook events (via the listener installed by add_peer)
    # ------------------------------------------------------------------
    def on_wanted_added(self, pid: str, piece: int) -> None:
        self._wanters.setdefault(piece, set()).add(pid)
        rows = self._rows
        for holder in self._havers.get(piece, _EMPTY_IDS):
            row = rows[holder]
            row[pid] = row.get(pid, 0) + 1

    def on_wanted_removed(self, pid: str, piece: int) -> None:
        ids = self._wanters.get(piece)
        if ids is not None:
            ids.discard(pid)
        rows = self._rows
        for holder in self._havers.get(piece, _EMPTY_IDS):
            row = rows[holder]
            count = row.get(pid, 0)
            if count <= 1:
                row.pop(pid, None)
            else:
                row[pid] = count - 1

    def on_completed_added(self, pid: str, piece: int) -> None:
        self._havers.setdefault(piece, set()).add(pid)
        row = self._rows[pid]
        for wanter in self._wanters.get(piece, _EMPTY_IDS):
            row[wanter] = row.get(wanter, 0) + 1
        tracked = self._tracked
        avail = self._avail
        for nid in self.swarm.topology.neighbors(pid):
            if nid in tracked:
                neighbor_row = avail[nid]
                neighbor_row[piece] = neighbor_row.get(piece, 0) + 1

    # ------------------------------------------------------------------
    # Topology events
    # ------------------------------------------------------------------
    def on_edge_added(self, a: str, b: str) -> None:
        tracked = self._tracked
        peer_a, peer_b = tracked.get(a), tracked.get(b)
        if peer_a is None or peer_b is None:
            return
        avail = self._avail
        row = avail[a]
        for piece in _completed_of(peer_b.book):
            row[piece] = row.get(piece, 0) + 1
        row = avail[b]
        for piece in _completed_of(peer_a.book):
            row[piece] = row.get(piece, 0) + 1

    def on_edge_removed(self, a: str, b: str) -> None:
        # Untracked endpoints were already subtracted by remove_peer.
        tracked = self._tracked
        peer_a, peer_b = tracked.get(a), tracked.get(b)
        if peer_a is None or peer_b is None:
            return
        avail = self._avail
        _dec_all(avail[a], _completed_of(peer_b.book))
        _dec_all(avail[b], _completed_of(peer_a.book))

    # ------------------------------------------------------------------
    # Self-check (the churn property test runs this after every event)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert every map equals a from-scratch naive rescan."""
        swarm = self.swarm
        expected_tracked = {pid: p for pid, p in swarm.peers.items()  # simlint: disable=SL012 -- consistency checker rebuilds the naive ground truth by design
                            if p.active}
        assert self._tracked == expected_tracked, (
            f"tracked {sorted(self._tracked)} != active "
            f"{sorted(expected_tracked)}")
        peers = self._tracked
        want_sets = {pid: set(p.book.wanted())
                     for pid, p in peers.items()}  # simlint: disable=SL012 -- see above
        have_sets = {pid: set(p.book.completed)
                     for pid, p in peers.items()}  # simlint: disable=SL012 -- see above
        expected_wanters: Dict[int, Set[str]] = {}
        for pid, pieces in want_sets.items():
            for piece in pieces:
                expected_wanters.setdefault(piece, set()).add(pid)
        got_wanters = {p: set(ids) for p, ids in self._wanters.items()
                       if ids}
        assert got_wanters == expected_wanters, "wanters diverged"
        expected_havers: Dict[int, Set[str]] = {}
        for pid, pieces in have_sets.items():
            for piece in pieces:
                expected_havers.setdefault(piece, set()).add(pid)
        got_havers = {p: set(ids) for p, ids in self._havers.items()
                      if ids}
        assert got_havers == expected_havers, "havers diverged"
        assert set(self._rows) == set(peers), "row keyset diverged"
        for holder_id, row in self._rows.items():
            expected_row = {}
            for wanter_id in peers:
                count = len(have_sets[holder_id] & want_sets[wanter_id])
                if count:
                    expected_row[wanter_id] = count
            assert row == expected_row, (
                f"row[{holder_id}] {row} != {expected_row}")
        assert set(self._avail) == set(peers), "avail keyset diverged"
        topology = swarm.topology
        for chooser_id, row in self._avail.items():
            expected_counts: Dict[int, int] = {}
            for nid in topology.neighbors(chooser_id):
                if nid in peers:
                    for piece in have_sets[nid]:
                        expected_counts[piece] = (
                            expected_counts.get(piece, 0) + 1)
            assert row == expected_counts, (
                f"avail[{chooser_id}] {row} != {expected_counts}")


def _completed_of(book) -> Iterable[int]:
    """The book's completed pieces; for a columnar book the ascending
    bits of its mask, so no set is materialized."""
    if isinstance(book, ColumnarBook):
        return mask_bits(book._cmask)
    return book.completed


def _wanted_of(book) -> Iterable[int]:
    """The book's wanted pieces (see :func:`_completed_of`)."""
    if isinstance(book, ColumnarBook):
        return mask_bits(book._wmask)
    return book.wanted()


def _dec_all(row: Dict[int, int], pieces: Iterable[int]) -> None:
    """Decrement counts, dropping entries that reach zero."""
    for piece in pieces:
        count = row.get(piece, 0)
        if count <= 1:
            row.pop(piece, None)
        else:
            row[piece] = count - 1


# ----------------------------------------------------------------------
# Predicate helpers with naive fallbacks.
#
# Protocol code calls these instead of intersecting wanted sets
# directly (simlint SL010 enforces it); each returns the same boolean
# the naive intersection would, through the index when the swarm has
# one.  Indexed branches require both peers to be active (= tracked) —
# every call site checks activity first, exactly as the naive scans
# filtered through ``neighbor_peers()``.
# ----------------------------------------------------------------------

def wants_from(swarm: "Swarm", wanter: "Peer", holder: "Peer") -> bool:
    """Does ``wanter`` want at least one piece ``holder`` completed?"""
    index = swarm.interest
    if index is not None:
        return wanter.id in index.row(holder.id)
    wanter_book = wanter.book
    holder_book = holder.book
    if (isinstance(wanter_book, ColumnarBook)
            and isinstance(holder_book, ColumnarBook)):
        return bool(wanter_book._wmask & holder_book._cmask)
    return not wanter_book.wanted().isdisjoint(holder_book.completed)


def wants_any_of(swarm: "Swarm", wanter: "Peer",
                 pieces: Iterable[int]) -> bool:
    """Does ``wanter`` want at least one of ``pieces``?"""
    index = swarm.interest
    if index is not None:
        return index.wants_any(wanter.id, pieces)
    book = wanter.book
    for piece in pieces:
        if book.wants(piece):
            return True
    return False


def wanted_mask(book) -> int:
    """The book's wanted pieces as a bitmask (a columnar book's own
    mask; packed from the set for a plain book)."""
    if isinstance(book, ColumnarBook):
        return book._wmask
    return set_to_mask(book.wanted())


def offers_interest(swarm: "Swarm", requestor: "Peer",
                    extra: Iterable[int], wanter: "Peer") -> bool:
    """Does ``wanter`` want >=1 of ``requestor``'s completed pieces or
    of ``extra`` (the Sec. II-B2 payee-candidacy predicate, with
    ``extra`` carrying the piece about to be uploaded)?"""
    index = swarm.interest
    if index is not None:
        if wanter.id in index.row(requestor.id):
            return True
        return index.wants_any(wanter.id, extra)
    book = wanter.book
    requestor_book = requestor.book
    if (isinstance(book, ColumnarBook)
            and isinstance(requestor_book, ColumnarBook)):
        if book._wmask & requestor_book._cmask:
            return True
    elif not book.wanted().isdisjoint(requestor_book.completed):
        return True
    for piece in extra:
        if book.wants(piece):
            return True
    return False


def needed_overlap(holder: "Peer", wanter: "Peer") -> int:
    """``holder.completed ∩ wanter.wanted`` as a bitmask — for the
    few callers that need the elements (the bootstrap both-need rule),
    not just the predicate.  Always computed pairwise: the index keeps
    counts, not pair overlaps."""
    holder_book = holder.book
    wanter_book = wanter.book
    if (isinstance(holder_book, ColumnarBook)
            and isinstance(wanter_book, ColumnarBook)):
        return holder_book._cmask & wanter_book._wmask
    return set_to_mask(holder_book.completed & wanter_book.wanted())
