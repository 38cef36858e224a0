"""Neighbor-local availability index and the interest predicates.

Two questions drive every upload decision.  *Does W want a piece H
holds?* is pairwise: one AND of two books, ``wanter._wmask &
holder._cmask`` on columnar books (a ``set.isdisjoint`` on plain
ones).  It needs no index: the masks are the source of truth, and a
table of interested pairs would have to be updated against every
tracked peer on each join, leave and piece event (O(N) work per event,
O(N²) state), where one big-int AND per question is cheap.  The
helpers at the bottom of this module answer it.

*How many of my neighbors hold piece p?* is the Local-Rarest-First
input (Sec. II-A), and it is what :class:`InterestIndex` keeps:

* ``_tracked`` — id -> Peer for every *active registered* peer;
* ``_avail``   — chooser id -> {piece: copies among the chooser's
  tracked topology neighbors} (missing key = zero copies).

Both are neighbor-local: a piece event touches the holder's
neighbors, an edge event the two endpoints.  Counting copies from the
masks instead means one walk over every neighbor per piece choice,
which is what the index saves.

Availability contract (who notifies the index, and when):

* **PieceBook** reports ``on_completed_added`` through the listener
  installed by :meth:`add_peer` (the wanted-set events arrive too and
  are ignored: availability counts holders only).
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
  book mutates while untracked; :meth:`add_peer` re-snapshots the
  book on rebrand, so those silent mutations are absorbed exactly.

Trace-neutrality argument: the counts equal the naive availability
over the same live neighbors, and piece choice shares its tie-break
(sorted pool, one ``rng.choice``) with the naive path, so a run with
the index on is bit-identical to one with it off (asserted by
``tests/test_interest_index.py`` over full event traces and by the
randomized-churn property test).

The predicate helpers live here, not in the protocol modules, on
purpose: simlint rule SL010 flags direct wanted-set intersections
inside ``bt/protocols/`` so consumers go through one implementation.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Mapping,
    Optional,
    TYPE_CHECKING,
)

from repro.bt.columnar import ColumnarBook, mask_bits, set_to_mask

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.peer import Peer
    from repro.bt.swarm import Swarm

#: Shared empty result so queries about untracked peers allocate
#: nothing.  Treat as read-only.
_EMPTY_ROW: Mapping[int, int] = {}


class InterestIndex:
    """Neighbor-local availability counts for one swarm (see module
    docstring)."""

    def __init__(self, swarm: "Swarm"):
        self.swarm = swarm
        #: id -> Peer for every *active registered* peer.
        self._tracked: Dict[str, "Peer"] = {}
        self._avail: Dict[str, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Queries (the hot path: plain dict lookups, no allocation)
    # ------------------------------------------------------------------
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
        availability entries against its tracked neighbors.
        """
        pid = peer.id
        tracked = self._tracked
        if pid in tracked:
            return
        tracked[pid] = peer
        # Availability: peers are normally tracked before their first
        # edge exists (register/rebrand precede the connect loop), but
        # rebuild from the topology for robustness.
        avail = self._avail
        avail_row: Dict[int, int] = {}
        topology = self.swarm.topology
        if pid in topology:
            completed = _completed_of(peer.book)
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
        peer.book.set_listener(self, pid)

    def remove_peer(self, peer: "Peer") -> None:
        """Stop tracking a peer the moment it deactivates.

        Idempotent: the deregister path calls it again as a backstop.
        """
        pid = peer.id
        if self._tracked.pop(pid, None) is None:
            return
        book = peer.book
        book.set_listener(None, None)
        self._avail.pop(pid, None)
        # The peer's edges are severed *after* deactivation (topology
        # removal fires for untracked endpoints and is ignored), so
        # its completed pieces leave the neighbors' counts here.
        completed = _completed_of(book)
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
        """Ignored: availability counts holders, not wanters."""

    def on_wanted_removed(self, pid: str, piece: int) -> None:
        """Ignored: availability counts holders, not wanters."""

    def on_completed_added(self, pid: str, piece: int) -> None:
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
        """Assert both maps equal a from-scratch naive rescan."""
        swarm = self.swarm
        expected_tracked = {pid: p for pid, p in swarm.peers.items()  # simlint: disable=SL012 -- consistency checker rebuilds the naive ground truth by design
                            if p.active}
        assert self._tracked == expected_tracked, (
            f"tracked {sorted(self._tracked)} != active "
            f"{sorted(expected_tracked)}")
        peers = self._tracked
        assert set(self._avail) == set(peers), "avail keyset diverged"
        topology = swarm.topology
        for chooser_id, row in self._avail.items():
            expected_counts: Dict[int, int] = {}
            for nid in topology.neighbors(chooser_id):
                if nid in peers:
                    for piece in peers[nid].book.completed:
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


def _dec_all(row: Dict[int, int], pieces: Iterable[int]) -> None:
    """Decrement counts, dropping entries that reach zero."""
    for piece in pieces:
        count = row.get(piece, 0)
        if count <= 1:
            row.pop(piece, None)
        else:
            row[piece] = count - 1


# ----------------------------------------------------------------------
# Interest predicates.
#
# Protocol code calls these instead of intersecting wanted sets
# directly (simlint SL010 enforces it).  Each is one mask AND when
# both books are columnar and the naive set test otherwise; the two
# agree bit for bit, so the backend never changes an answer.
# ----------------------------------------------------------------------

def wants_from(wanter: "Peer", holder: "Peer") -> bool:
    """Does ``wanter`` want at least one piece ``holder`` completed?"""
    wanter_book = wanter.book
    holder_book = holder.book
    if (isinstance(wanter_book, ColumnarBook)
            and isinstance(holder_book, ColumnarBook)):
        return bool(wanter_book._wmask & holder_book._cmask)
    return not wanter_book.wanted().isdisjoint(holder_book.completed)


def wants_any_of(wanter: "Peer", pieces: Iterable[int]) -> bool:
    """Does ``wanter`` want at least one of ``pieces``?"""
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


def offers_interest(requestor: "Peer", extra: Iterable[int],
                    wanter: "Peer") -> bool:
    """Does ``wanter`` want >=1 of ``requestor``'s completed pieces or
    of ``extra`` (the Sec. II-B2 payee-candidacy predicate, with
    ``extra`` carrying the piece about to be uploaded)?"""
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
    not just the predicate."""
    holder_book = holder.book
    wanter_book = wanter.book
    if (isinstance(holder_book, ColumnarBook)
            and isinstance(wanter_book, ColumnarBook)):
        return holder_book._cmask & wanter_book._wmask
    return set_to_mask(holder_book.completed & wanter_book.wanted())
