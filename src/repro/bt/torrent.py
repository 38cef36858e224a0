"""The shared file: pieces and per-peer piece bookkeeping.

A :class:`Torrent` describes the file (piece count/size); a
:class:`PieceBook` (the bitmask :class:`repro.bt.columnar.ColumnarBook`)
is one peer's view of it — which pieces are completed, which are
expected (in flight or encrypted-pending), and which are still needed.
The distinction between *completed* and *expected* matters for
T-Chain, where a peer may hold many encrypted pieces it cannot use
yet, and for avoiding duplicate downloads in all protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.bt.columnar import ColumnarBook


@dataclass(frozen=True)
class Torrent:
    """Immutable description of the file a swarm shares."""

    n_pieces: int
    piece_size_kb: float = 256.0

    def __post_init__(self):
        if self.n_pieces < 1:
            raise ValueError("a torrent needs at least one piece")
        if self.piece_size_kb <= 0:
            raise ValueError("piece size must be positive")

    @property
    def size_kb(self) -> float:
        """Total file size in KB."""
        return self.n_pieces * self.piece_size_kb

    @property
    def size_mb(self) -> float:
        """Total file size in MB."""
        return self.size_kb / 1024.0

    def all_pieces(self) -> FrozenSet[int]:
        """The full piece index set."""
        return frozenset(range(self.n_pieces))


#: One peer's piece book.  The bitmask book is the only implementation;
#: this name is the one the rest of the tree constructs it by.
PieceBook = ColumnarBook


def piece_payload(torrent: Torrent, piece: int) -> bytes:
    """Deterministic synthetic content for a piece.

    Used by ``real_crypto`` simulations: every donor derives the same
    bytes for the same piece, so decrypted pieces can be checked
    against ground truth end to end.
    """
    if not 0 <= piece < torrent.n_pieces:
        raise IndexError(f"piece {piece} out of range")
    size = int(torrent.piece_size_kb * 1024)
    stamp = f"piece-{piece:08d}|".encode("ascii")
    reps = size // len(stamp) + 1
    return (stamp * reps)[:size]


def full_book(torrent: Torrent) -> PieceBook:
    """A seeder's book: everything completed."""
    return PieceBook(torrent, initial_pieces=range(torrent.n_pieces))


def partial_book(torrent: Torrent, fraction: float,
                 rng) -> PieceBook:
    """A book pre-filled with a random ``fraction`` of pieces.

    Used by the initial-piece-differences experiment (Fig. 6(b)).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    count = round(fraction * torrent.n_pieces)
    pieces = rng.sample(range(torrent.n_pieces), count)
    return PieceBook(torrent, initial_pieces=pieces)
