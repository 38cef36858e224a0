"""The shared file: pieces and per-peer piece bookkeeping.

A :class:`Torrent` describes the file (piece count/size); a
:class:`PieceBook` is one peer's view of it — which pieces are
completed, which are expected (in flight or encrypted-pending), and
which are still needed.  The distinction between *completed* and
*expected* matters for T-Chain, where a peer may hold many encrypted
pieces it cannot use yet, and for avoiding duplicate downloads in all
protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Set


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


class PieceBook:
    """One peer's piece state.

    ``completed`` — decrypted/usable pieces; what the peer can serve.
    ``expected`` — pieces on their way: in-flight downloads plus (for
    T-Chain) encrypted pieces awaiting a key.  Piece selection skips
    expected pieces so the same piece is never fetched twice.
    """

    def __init__(self, torrent: Torrent,
                 initial_pieces: Iterable[int] = ()):
        self.torrent = torrent
        self._completed: Set[int] = set()
        self._expected: Set[int] = set()
        # Both sets are maintained incrementally: piece selection runs
        # on every upload decision and must not rebuild them.
        self._missing: Set[int] = set(range(torrent.n_pieces))
        self._wanted: Set[int] = set(range(torrent.n_pieces))
        for piece in initial_pieces:
            self.add_completed(piece)

    # -- completed ------------------------------------------------------
    @property
    def completed(self) -> Set[int]:
        """Completed piece indices (live view, do not mutate)."""
        return self._completed

    def add_completed(self, piece: int) -> bool:
        """Mark a piece usable; returns False if already completed."""
        self._check(piece)
        self._expected.discard(piece)
        if piece in self._completed:
            return False
        self._completed.add(piece)
        self._missing.discard(piece)
        self._wanted.discard(piece)
        return True

    def has(self, piece: int) -> bool:
        """True if the piece is completed."""
        return piece in self._completed

    @property
    def completed_count(self) -> int:
        """Number of completed pieces."""
        return len(self._completed)

    @property
    def is_complete(self) -> bool:
        """True when the whole file is downloaded."""
        return len(self._completed) == self.torrent.n_pieces

    # -- expected -------------------------------------------------------
    def expect(self, piece: int) -> None:
        """Mark a piece as in flight / pending decryption."""
        self._check(piece)
        if piece not in self._completed:
            self._expected.add(piece)
            self._wanted.discard(piece)

    def unexpect(self, piece: int) -> None:
        """A pending piece fell through (departure, abort)."""
        self._expected.discard(piece)
        if piece in self._missing:
            self._wanted.add(piece)

    def is_expected(self, piece: int) -> bool:
        """True if the piece is in flight or pending a key."""
        return piece in self._expected

    # -- derived sets ---------------------------------------------------
    def missing(self) -> Set[int]:
        """Pieces not yet completed (may include expected ones).

        Live view — treat as read-only.
        """
        return self._missing

    def wanted(self) -> Set[int]:
        """Pieces worth requesting: not completed and not expected.

        Live view — treat as read-only.
        """
        return self._wanted

    def needs_from(self, other_completed: Set[int]) -> Set[int]:
        """Wanted pieces that ``other_completed`` could provide."""
        return other_completed & self.wanted()

    def wants(self, piece: int) -> bool:
        """True if the piece is wanted (not completed, not expected)."""
        return piece in self._wanted

    def _wanted_nonempty(self) -> bool:
        """O(1) ``bool(wanted())`` without materializing a view."""
        return bool(self._wanted)

    def _check(self, piece: int) -> None:
        if not 0 <= piece < self.torrent.n_pieces:
            raise IndexError(f"piece {piece} out of range "
                             f"[0, {self.torrent.n_pieces})")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"PieceBook({self.completed_count}/"
                f"{self.torrent.n_pieces} done, "
                f"{len(self._expected)} expected)")


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
