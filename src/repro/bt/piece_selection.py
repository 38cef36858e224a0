"""Piece selection policies.

Leechers pick which piece to fetch from an uploader.  The default is
BitTorrent's Local-Rarest-First (LRF): among the candidate pieces,
prefer the one with the fewest copies among the chooser's neighbors.
T-Chain uses LRF everywhere except newcomer bootstrapping, where the
donor applies the both-need rule (:mod:`repro.core.bootstrap`).
"""

from __future__ import annotations

from random import Random
from typing import AbstractSet, Dict, Iterable, Optional, Set


def availability(pieces: Iterable[int],
                 neighbor_books: Iterable[AbstractSet[int]]
                 ) -> Dict[int, int]:
    """Copies of each piece among the given neighbor piece sets."""
    counts = {p: 0 for p in pieces}
    for book in neighbor_books:
        for piece in counts:
            if piece in book:
                counts[piece] += 1
    return counts


def local_rarest_first(candidates: Set[int],
                       neighbor_books: Iterable[AbstractSet[int]],
                       rng: Random) -> Optional[int]:
    """LRF choice among ``candidates``; ties broken uniformly.

    ``neighbor_books`` are the *chooser's* neighbors' completed piece
    sets — rarity is local, as in BitTorrent.  The tie-break (sorted
    pool of the minimum-count pieces, one ``rng.choice``) is the
    contract ``Peer.choose_piece_from``'s holder-column loop
    reproduces bit for bit.
    """
    if not candidates:
        return None
    counts = availability(candidates, neighbor_books)
    rarest = min(counts.values())
    pool = sorted(p for p, c in counts.items() if c == rarest)
    return rng.choice(pool)


def random_piece(candidates: Set[int], rng: Random) -> Optional[int]:
    """Uniform random choice (Random BitTorrent, tie-breaking)."""
    if not candidates:
        return None
    return rng.choice(sorted(candidates))
