"""Tracked-peer registry and the interest predicates.

Two questions drive every upload decision.  *Does W want a piece H
holds?* is pairwise: one AND of two bitmask books, ``wanter._wmask &
holder._cmask``.  It needs no index: the masks are the source of
truth.  The helpers at the bottom of this module answer it.

*How many of my neighbors hold piece p?* is the Local-Rarest-First
input (Sec. II-A).  It is answered by the holder columns of
:class:`repro.bt.columnar.ColumnarState` (one row bitmask per piece,
ANDed with the chooser's live-neighbor mask at query time).  This
module keeps no availability state.

What :class:`InterestIndex` still keeps is ``_tracked``: id -> Peer
for every *active registered* peer.  ``Swarm.register`` and
``Swarm.rebrand`` call :meth:`~InterestIndex.add_peer`; every
deactivation path (``leave``, ``crash``, ``whitewash``) calls
:meth:`~InterestIndex.remove_peer` via ``Swarm.note_deactivated``
immediately after ``active = False``, so the tracked set always equals
the set of active registered peers, the same predicate
``Peer.neighbor_peers`` applies.  T-Chain's ``_decide_bootstrap`` and
``_try_fulfil`` read it.  Every swarm has one.

The event hooks ``on_wanted_added``, ``on_wanted_removed``,
``on_completed_added``, ``on_edge_added`` and ``on_edge_removed`` are
no-ops that nothing calls.  They stay defined because
``swarmbench/tracer.py`` wraps them by name, and the benchmark's traced
run fails on a missing attribute.

The predicate helpers live here, not in the protocol modules, on
purpose: simlint rule SL010 flags direct wanted-set intersections
inside ``bt/protocols/`` so consumers go through one implementation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.bt.peer import Peer
    from repro.bt.swarm import Swarm


class InterestIndex:
    """The active registered peers of one swarm (see module
    docstring)."""

    def __init__(self, swarm: "Swarm"):
        self.swarm = swarm
        #: id -> Peer for every *active registered* peer.
        self._tracked: Dict[str, "Peer"] = {}

    def tracked_peer(self, peer_id: str) -> Optional["Peer"]:
        """The peer while it is tracked (active and registered), else
        ``None``."""
        return self._tracked.get(peer_id)

    def add_peer(self, peer: "Peer") -> None:
        """Start tracking a peer (registration or rebrand)."""
        self._tracked[peer.id] = peer

    def remove_peer(self, peer: "Peer") -> None:
        """Stop tracking a peer the moment it deactivates.

        Idempotent: the deregister path calls it again as a backstop.
        """
        self._tracked.pop(peer.id, None)

    # No-op hooks kept for the benchmark tracer (see module docstring).
    def on_wanted_added(self, pid: str, piece: int) -> None:
        """No-op; nothing calls it."""

    def on_wanted_removed(self, pid: str, piece: int) -> None:
        """No-op; nothing calls it."""

    def on_completed_added(self, pid: str, piece: int) -> None:
        """No-op; nothing calls it."""

    def on_edge_added(self, a: str, b: str) -> None:
        """No-op; nothing calls it."""

    def on_edge_removed(self, a: str, b: str) -> None:
        """No-op; nothing calls it."""

    def check_consistency(self) -> None:
        """Assert the tracked set equals the active registered peers."""
        expected_tracked = {pid: p for pid, p in self.swarm.peers.items()  # simlint: disable=SL012 -- consistency checker rebuilds the naive ground truth by design
                            if p.active}
        assert self._tracked == expected_tracked, (
            f"tracked {sorted(self._tracked)} != active "
            f"{sorted(expected_tracked)}")


# ----------------------------------------------------------------------
# Interest predicates.
#
# Protocol code calls these instead of intersecting wanted sets
# directly (simlint SL010 enforces it).  Each is one mask AND of the
# two books.
# ----------------------------------------------------------------------

def wants_from(wanter: "Peer", holder: "Peer") -> bool:
    """Does ``wanter`` want at least one piece ``holder`` completed?"""
    return bool(wanter.book._wmask & holder.book._cmask)


def wants_any_of(wanter: "Peer", pieces: Iterable[int]) -> bool:
    """Does ``wanter`` want at least one of ``pieces``?"""
    book = wanter.book
    for piece in pieces:
        if book.wants(piece):
            return True
    return False


def offers_interest(requestor: "Peer", extra: Iterable[int],
                    wanter: "Peer") -> bool:
    """Does ``wanter`` want >=1 of ``requestor``'s completed pieces or
    of ``extra`` (the Sec. II-B2 payee-candidacy predicate, with
    ``extra`` carrying the piece about to be uploaded)?"""
    book = wanter.book
    if book._wmask & requestor.book._cmask:
        return True
    for piece in extra:
        if book.wants(piece):
            return True
    return False


def needed_overlap(holder: "Peer", wanter: "Peer") -> int:
    """``holder.completed ∩ wanter.wanted`` as a bitmask — for the
    few callers that need the elements (the bootstrap both-need rule),
    not just the predicate."""
    return holder.book._cmask & wanter.book._wmask
