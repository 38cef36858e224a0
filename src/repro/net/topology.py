"""Neighbor topology.

An undirected graph of peer connections maintained the BitTorrent way
(Sec. II-A / IV-A): on arrival a peer receives up to 50 random swarm
members from the tracker and connects to them; peers keep at most 55
neighbors and ask the tracker for more when they drop below 30.

The topology is a swarm-wide object so departures can atomically sever
all of a peer's edges and notify its former neighbors.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

DEFAULT_MAX_NEIGHBORS = 55
DEFAULT_REFILL_THRESHOLD = 30


class Topology:
    """Undirected neighbor graph with per-peer caps.

    Parameters
    ----------
    max_neighbors:
        Hard cap per peer (55 in the paper).  Free-riders mounting the
        large-view exploit register with ``unlimited=True`` to bypass
        the cap.
    """

    def __init__(self, max_neighbors: int = DEFAULT_MAX_NEIGHBORS,
                 refill_threshold: int = DEFAULT_REFILL_THRESHOLD):
        self.max_neighbors = max_neighbors
        self.refill_threshold = refill_threshold
        self._adj: Dict[str, Set[str]] = {}
        self._unlimited: Set[str] = set()
        # Memoized sorted neighbor lists: every deterministic iteration
        # over a neighborhood sorts it, and neighborhoods change far
        # less often than they are read (rechoke scans, payee
        # selection, rarest-first counting all read per event).
        self._sorted_cache: Dict[str, List[str]] = {}
        self.on_disconnect: Optional[Callable[[str, str], None]] = None
        # Edge-change notifications for the columnar adjacency.  Unlike
        # on_disconnect (a protocol-facing hook fired only from
        # remove_peer), these fire on *every* edge mutation, and
        # on_edge_removed fires *before* on_disconnect so the columns
        # are consistent when disconnect handlers re-enter (refills,
        # pumps).
        self.on_edge_added: Optional[Callable[[str, str], None]] = None
        self.on_edge_removed: Optional[Callable[[str, str], None]] = None

    def add_peer(self, peer_id: str, unlimited: bool = False) -> None:
        """Register a peer with no neighbors yet."""
        if peer_id in self._adj:
            raise ValueError(f"duplicate peer {peer_id!r}")
        self._adj[peer_id] = set()
        if unlimited:
            self._unlimited.add(peer_id)

    def remove_peer(self, peer_id: str) -> List[str]:
        """Remove a peer and all its edges; returns its ex-neighbors.

        Neighbors are notified in sorted order so simulations do not
        depend on per-process string hashing.
        """
        neighbors = sorted(self._adj.pop(peer_id, ()))
        self._sorted_cache.pop(peer_id, None)
        for other in neighbors:
            self._adj[other].discard(peer_id)
            self._sorted_cache.pop(other, None)
            if self.on_edge_removed is not None:
                self.on_edge_removed(peer_id, other)
            if self.on_disconnect is not None:
                self.on_disconnect(other, peer_id)
        self._unlimited.discard(peer_id)
        return neighbors

    def _cap(self, peer_id: str) -> int:
        if peer_id in self._unlimited:
            return 10 ** 9
        return self.max_neighbors

    def can_accept(self, peer_id: str) -> bool:
        """True while the peer has neighbor capacity left."""
        return len(self._adj[peer_id]) < self._cap(peer_id)

    def connect(self, a: str, b: str) -> bool:
        """Create the edge a—b if both sides have capacity.

        Returns True when the edge exists afterwards.
        """
        if a == b:
            return False
        if a not in self._adj or b not in self._adj:
            return False
        if b in self._adj[a]:
            return True
        if not (self.can_accept(a) and self.can_accept(b)):
            return False
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._sorted_cache.pop(a, None)
        self._sorted_cache.pop(b, None)
        if self.on_edge_added is not None:
            self.on_edge_added(a, b)
        return True

    def disconnect(self, a: str, b: str) -> None:
        """Remove the edge a—b if present.

        Deliberately does *not* fire ``on_disconnect`` (snubbing a
        neighbor is not a departure), but does report the edge change.
        """
        # An edge counts as existing if *either* side records it:
        # asymmetric state (a half-removed edge, a peer mid-departure)
        # must still produce exactly one on_edge_removed so the
        # columnar adjacency and route caches don't drift.
        existed = (b in self._adj.get(a, ())
                   or a in self._adj.get(b, ()))
        if a in self._adj:
            self._adj[a].discard(b)
            self._sorted_cache.pop(a, None)
        if b in self._adj:
            self._adj[b].discard(a)
            self._sorted_cache.pop(b, None)
        if existed and self.on_edge_removed is not None:
            self.on_edge_removed(a, b)

    def neighbors(self, peer_id: str) -> Set[str]:
        """The peer's current neighbor set (live view, do not mutate)."""
        return self._adj[peer_id]

    def sorted_neighbors(self, peer_id: str) -> List[str]:
        """The peer's neighbor ids in sorted order (cached between
        edge changes; treat the returned list as read-only)."""
        cached = self._sorted_cache.get(peer_id)
        if cached is None:
            cached = sorted(self._adj[peer_id])
            self._sorted_cache[peer_id] = cached
        return cached

    def degree(self, peer_id: str) -> int:
        """Number of neighbors."""
        return len(self._adj[peer_id])

    def are_neighbors(self, a: str, b: str) -> bool:
        """True if the edge a—b exists."""
        return b in self._adj.get(a, ())

    def needs_refill(self, peer_id: str) -> bool:
        """True when the peer should ask the tracker for more members."""
        return len(self._adj[peer_id]) < self.refill_threshold

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._adj

    def __len__(self) -> int:
        return len(self._adj)
