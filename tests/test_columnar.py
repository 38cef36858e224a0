"""Columnar swarm-state regression suite (``repro.bt.columnar``).

Three contracts are under test:

* **Trace neutrality** — a run with the columnar backend enabled must
  be bit-identical (full event trace *and* final metrics) to the same
  run on the plain object model, across protocols and seeds, and in
  every combination with the interest index.
* **Consistency under churn** — after *every* fired event in a
  scenario full of joins, completion-leaves, whitewash rebrands and
  crashes, every columnar table (rows, masks, adjacency, free list)
  must equal a from-scratch naive rescan
  (``ColumnarState.check_consistency``).
* **Adoption semantics** — ``adopt_book`` transmutes a live
  ``PieceBook`` in place (same object identity), so post-construction
  book replacement and Sybil shared books keep working.
"""

import pytest

from random import Random

from repro.bt.columnar import (
    ColumnarBook,
    adopt_book,
    mask_bits,
    mask_to_set,
    set_to_mask,
    _popcount,
)
from repro.attacks.freerider import FreeRiderOptions
from repro.bt.config import SwarmConfig
from repro.bt.piece_selection import availability, local_rarest_first
from repro.bt.protocols.tchain import TChainLeecher
from repro.bt.swarm import Swarm
from repro.bt.torrent import PieceBook, Torrent
from repro.bt.tracker import Tracker
from repro.core.bootstrap import select_bootstrap_piece
from repro.experiments import run_swarm


def traced_run(extra, seed=7, protocol="tchain", **kwargs):
    """One run returning (event trace, result) under ``extra``."""
    trace = []

    def setup(swarm):
        swarm.sim.add_observer(
            lambda handle: trace.append(
                (handle.time, handle.seq,
                 getattr(handle.callback, "__qualname__",
                         repr(handle.callback)))))

    result = run_swarm(protocol=protocol, seed=seed, setup=setup,
                       extra=dict(extra), **kwargs)
    return trace, result


def record_rows(result):
    """Bit-comparable projection of the final per-peer metrics."""
    return sorted(
        (r.peer_id, r.kind, r.capacity_kbps, r.join_time,
         r.finish_time, r.leave_time, r.kb_uploaded, r.kb_downloaded,
         r.pieces_uploaded, r.pieces_downloaded, r.utilization)
        for r in result.metrics.records)


#: Whitewashing free-riders + completion-leaves exercise every
#: columnar lifecycle edge (adopt, deactivate, release, rebrand).
CHURN_SCENARIO = dict(leechers=14, pieces=10, freerider_fraction=0.25)


class TestTraceNeutrality:
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_tchain_full_trace_bit_identical(self, seed):
        trace_on, result_on = traced_run(
            {"columnar": True, "interest_index": False}, seed=seed,
            **CHURN_SCENARIO)
        trace_off, result_off = traced_run(
            {"columnar": False, "interest_index": False}, seed=seed,
            **CHURN_SCENARIO)
        assert len(trace_on) > 200  # the scenario actually ran
        assert trace_on == trace_off
        assert record_rows(result_on) == record_rows(result_off)

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_bittorrent_full_trace_bit_identical(self, seed):
        kwargs = dict(leechers=10, pieces=8)
        trace_on, _ = traced_run(
            {"columnar": True, "interest_index": False},
            seed=seed, protocol="bittorrent", **kwargs)
        trace_off, _ = traced_run(
            {"columnar": False, "interest_index": False},
            seed=seed, protocol="bittorrent", **kwargs)
        assert len(trace_on) > 50
        assert trace_on == trace_off

    @pytest.mark.parametrize("protocol", ["propshare", "random"])
    def test_other_baselines_bit_identical(self, protocol):
        kwargs = dict(leechers=10, pieces=8)
        trace_on, _ = traced_run(
            {"columnar": True, "interest_index": False},
            protocol=protocol, **kwargs)
        trace_off, _ = traced_run(
            {"columnar": False, "interest_index": False},
            protocol=protocol, **kwargs)
        assert len(trace_on) > 50
        assert trace_on == trace_off

    def test_columnar_and_index_compose(self):
        """All four on/off combinations yield the same trace."""
        traces = [
            traced_run({"columnar": c, "interest_index": i},
                       **CHURN_SCENARIO)[0]
            for c in (False, True) for i in (False, True)]
        assert len(traces[0]) > 200
        assert all(t == traces[0] for t in traces[1:])

    def test_columnar_and_index_compose_many_pieces(self):
        """The four combinations agree where masks span many bytes
        (300 pieces: LRF and the bootstrap rule decode wide masks)."""
        runs = [traced_run({"columnar": c, "interest_index": i},
                           leechers=10, pieces=300,
                           freerider_fraction=0.25)
                for c in (False, True) for i in (False, True)]
        trace, result = runs[0]
        assert len(trace) > 5000
        assert all(t == trace for t, _ in runs[1:])
        assert all(record_rows(r) == record_rows(result)
                   for _, r in runs[1:])

    def test_columnar_enabled_by_default(self):
        result = run_swarm(protocol="tchain", seed=3, leechers=6,
                           pieces=5)
        assert result.swarm.columnar is not None

    def test_columnar_disabled_when_opted_out(self):
        result = run_swarm(protocol="tchain", seed=3, leechers=6,
                           pieces=5, extra={"columnar": False})
        assert result.swarm.columnar is None


class TestChurnConsistency:
    """The randomized-churn property test: columnar tables == naive
    rescan after every event (including a mid-run crash)."""

    def test_store_matches_rescan_after_every_event(self):
        checks = 0

        def setup(swarm):
            def crash_one():
                for pid in sorted(swarm.peers):
                    peer = swarm.peers[pid]
                    if peer.active and peer.kind != "seeder":
                        peer.crash()
                        return

            swarm.sim.schedule(40.0, crash_one)

            def check(_handle):
                nonlocal checks
                swarm.columnar.check_consistency()
                checks += 1

            swarm.sim.add_observer(check)

        run_swarm(protocol="tchain", seed=11, setup=setup,
                  extra={"columnar": True, "interest_index": False},
                  **CHURN_SCENARIO)
        assert checks > 200  # the property was actually exercised

    def test_final_state_consistent_for_baselines(self):
        for protocol in ("bittorrent", "propshare"):
            result = run_swarm(protocol=protocol, seed=5, leechers=8,
                               pieces=6,
                               extra={"interest_index": False})
            result.swarm.columnar.check_consistency()

    def test_sanitized_run_clean_with_columnar_on(self):
        result = run_swarm(protocol="tchain", seed=13, sanitize=True,
                           extra={"columnar": True}, **CHURN_SCENARIO)
        assert result.swarm.columnar is not None
        assert result.swarm.sim.events_fired > 200


def bit_loop(mask):
    """Reference bit positions: the lowest-set-bit loop, one big-int
    step per set bit."""
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


def random_mask(rng, width):
    return rng.getrandbits(width) | 1 << (width - 1)


class TestMaskHelpers:
    def test_roundtrip(self):
        for pieces in (set(), {0}, {3, 5, 17}, set(range(64)),
                       {255, 256}, {7, 300, 511}, set(range(250, 520)),
                       {0, 1023, 2047}):
            assert mask_to_set(set_to_mask(pieces)) == pieces

    @pytest.mark.parametrize("width", [64, 512, 2048])
    def test_mask_bits_ascending_and_equal_to_bit_loop(self, width):
        rng = Random(width)
        masks = [0, 1 << (width - 1)] + list(range(1, 300))
        masks += [random_mask(rng, width) for _ in range(20)]
        # Sparse masks leave most bytes zero.
        masks += [set_to_mask(rng.sample(range(width), 3))
                  for _ in range(20)]
        for mask in masks:
            bits = list(mask_bits(mask))
            assert bits == sorted(bit_loop(mask))
            assert all(a < b for a, b in zip(bits, bits[1:]))

    def test_bootstrap_draw_matches_set_rule(self):
        """Drawing from ``mask_bits`` of the three-way AND consumes the
        rng exactly as ``select_bootstrap_piece`` over the sets."""
        rng = Random(5)
        for _ in range(50):
            sets = [set(rng.sample(range(512), 300)) for _ in range(3)]
            feasible = mask_bits(set_to_mask(sets[0])
                                 & set_to_mask(sets[1])
                                 & set_to_mask(sets[2]))
            seed = rng.random()
            assert Random(seed).choice(feasible) == \
                select_bootstrap_piece(*sets, Random(seed))

    def test_popcount(self):
        for mask in (0, 1, 0b1011, (1 << 200) | 7):
            assert _popcount(mask) == bin(mask).count("1")


class TestAdoption:
    def _book(self, n=8, initial=()):
        return PieceBook(Torrent(n_pieces=n), initial_pieces=initial)

    def test_transmute_preserves_identity(self):
        book = self._book(initial=(1, 2))
        before = id(book)
        adopted = adopt_book(book)
        assert adopted is book
        assert id(book) == before
        assert isinstance(book, ColumnarBook)
        assert isinstance(book, PieceBook)  # still a PieceBook
        assert book.completed == {1, 2}
        assert adopt_book(book) is book  # idempotent

    def test_semantics_match_plain_book(self):
        """Drive a ColumnarBook and a PieceBook through the same
        randomized operation sequence; every observable must agree."""
        rng = Random(42)
        torrent = Torrent(n_pieces=12)
        plain = PieceBook(torrent, initial_pieces=(0,))
        masked = adopt_book(PieceBook(torrent, initial_pieces=(0,)))
        for _ in range(300):
            piece = rng.randrange(12)
            op = rng.choice(("complete", "expect", "unexpect"))
            if op == "complete":
                assert plain.add_completed(piece) == \
                    masked.add_completed(piece)
            elif op == "expect":
                plain.expect(piece)
                masked.expect(piece)
            else:
                plain.unexpect(piece)
                masked.unexpect(piece)
            assert masked.completed == plain.completed
            assert masked.missing() == plain.missing()
            assert masked.wanted() == plain.wanted()
            assert masked.completed_count == plain.completed_count
            assert masked.is_complete == plain.is_complete
            for p in range(12):
                assert masked.has(p) == plain.has(p)
                assert masked.wants(p) == plain.wants(p)
                assert masked.is_expected(p) == plain.is_expected(p)
            other = set(rng.sample(range(12), 5))
            assert masked.needs_from(other) == plain.needs_from(other)

    def test_out_of_range_pieces_match_plain_book(self):
        """Pieces outside [0, n_pieces) are never held, wanted or
        expected, and ``unexpect`` of one is a no-op — also on a
        complete book, where it used to set a phantom wanted bit."""
        n = 8
        for initial in (range(n), (1, 2)):
            plain = self._book(n, initial)
            masked = adopt_book(self._book(n, initial))
            for piece in (n, n + 5, 64, -1, -9):
                plain.unexpect(piece)
                masked.unexpect(piece)
                for book in (plain, masked):
                    assert not book.has(piece)
                    assert not book.wants(piece)
                    assert not book.is_expected(piece)
                assert masked.wanted() == plain.wanted()
                assert masked._wanted_nonempty() == \
                    plain._wanted_nonempty()
                assert masked._wmask >> n == 0

    def test_shared_sybil_book_stays_shared(self):
        """Sybil identities sharing one book object keep sharing it
        through adoption (one mask set, N columnar rows)."""
        from repro.attacks.sybil import make_sybil_group
        from repro.bt.protocols.tchain import TChainLeecher

        captured = {}

        def setup(swarm):
            captured["peers"] = make_sybil_group(
                swarm, TChainLeecher, size=3)
            for peer in captured["peers"]:
                swarm.sim.schedule(1.0, peer.join)

        result = run_swarm(protocol="tchain", seed=9, leechers=6,
                           pieces=5, setup=setup)
        assert result.swarm.interest is not None
        result.swarm.columnar.check_consistency()
        books = {id(p.book) for p in captured["peers"]}
        assert len(books) == 1
        assert isinstance(captured["peers"][0].book, ColumnarBook)


def sybil_run(protocol, columnar, index, options=None):
    """A swarm with a 3-identity Sybil group sharing one book."""
    from repro.attacks.sybil import make_sybil_group
    from repro.bt.protocols.bittorrent import BitTorrentLeecher
    from repro.bt.protocols.tchain import TChainLeecher

    leecher_cls = {"bittorrent": BitTorrentLeecher,
                   "tchain": TChainLeecher}[protocol]
    kwargs = {} if options is None else {"options": options}

    def setup(swarm):
        for peer in make_sybil_group(swarm, leecher_cls, size=3,
                                     **kwargs):
            swarm.sim.schedule(1.0, peer.join)

    return run_swarm(protocol=protocol, seed=9, leechers=12, pieces=16,
                     setup=setup,
                     extra={"columnar": columnar, "interest_index": index})


class TestSybilGroups:
    """Sybil identities share one book; every backend must agree on
    the run, and the holder columns must count every identity."""

    @pytest.mark.parametrize("protocol,options", [
        ("bittorrent", None),
        ("tchain", FreeRiderOptions(large_view=True, collude=True)),
    ])
    def test_digest_equal_across_backends(self, protocol, options):
        outcomes = []
        for columnar in (False, True):
            for index in (False, True):
                result = sybil_run(protocol, columnar, index, options)
                if columnar:
                    result.swarm.columnar.check_consistency()
                if index:
                    result.swarm.interest.check_consistency()
                sim = result.swarm.sim
                outcomes.append((record_rows(result), sim.events_fired,
                                 sim.now))
        assert outcomes[0][1] > 300  # the scenario actually ran
        assert all(o == outcomes[0] for o in outcomes[1:])


def holder_swarm(n_pieces, seed, n_peers=12):
    """A joined T-Chain swarm (no event run) on the default backend
    with seeded random books, two identities sharing one book, and one
    deactivated-but-still-adjacent peer."""
    rng = Random(seed)
    swarm = Swarm(SwarmConfig(n_pieces=n_pieces, seed=seed,
                              max_neighbors=6, refill_threshold=2,
                              tracker_list_size=5))
    shared = PieceBook(swarm.torrent)
    peers = []
    for i in range(n_peers):
        # Zero capacity: pump never plans, so the books stay as set.
        peer = TChainLeecher(swarm, f"L{i:02d}", capacity_kbps=0.0)
        if i in (3, 7):
            peer.book = shared
        peer.join()
        peers.append(peer)
    for peer in peers:
        density = rng.choice((0.0, 0.1, 0.5, 0.95))
        for piece in range(n_pieces):
            roll = rng.random()
            if roll < density:
                peer.book.add_completed(piece)
            elif roll < density + 0.05:
                peer.book.expect(piece)
    gone = peers[-1]
    gone.active = False
    swarm.note_deactivated(gone)
    return swarm, peers


class TestHolderColumns:
    @pytest.mark.parametrize("n_pieces", [4, 64, 512, 2048])
    def test_choice_equals_naive_lrf(self, n_pieces):
        """``choose_piece_from`` on the holder columns returns the
        naive ``local_rarest_first`` piece over ``neighbor_peers()``
        from the same rng state, and leaves the same rng state."""
        compared = 0
        for seed in (1, 2):
            swarm, peers = holder_swarm(n_pieces, seed)
            swarm.columnar.check_consistency()
            rng = swarm.sim.rng
            store = swarm.columnar
            for me in peers:
                if not me.active:
                    continue
                books = [p.book.completed for p in me.neighbor_peers()]
                for uploader in peers:
                    if uploader is me:
                        continue
                    cand = me.book.needs_from(uploader.book.completed)
                    assert store.availability(
                        me, set_to_mask(cand)) == availability(
                            sorted(cand), books)
                    state = rng.getstate()
                    got = me.choose_piece_from(uploader)
                    after = rng.getstate()
                    rng.setstate(state)
                    want = local_rarest_first(cand, books, rng)
                    assert got == want
                    assert rng.getstate() == after
                    compared += want is not None
        assert compared > 50

    def test_recycled_row_and_rebrand_leave_no_stale_bits(self):
        swarm, peers = holder_swarm(64, seed=3)
        store = swarm.columnar
        leaver = next(p for p in peers
                      if p.active and p.book.completed_count > 5
                      and p.book is not peers[3].book)
        row = store.row_of[leaver.id]
        leaver.leave()
        assert not any(h >> row & 1 for h in store.holders)
        newcomer = TChainLeecher(swarm, "N00", capacity_kbps=0.0)
        newcomer.join()
        assert store.row_of["N00"] == row  # the freed row is reused
        assert not any(h >> row & 1 for h in store.holders)
        store.check_consistency()
        # A whitewash rebrand releases the old row and adopts anew.
        washer = next(p for p in peers
                      if p.active and p.book.completed_count > 5
                      and p is not newcomer)
        old_id = washer.id
        washer.whitewash()
        assert old_id not in store.row_of
        store.check_consistency()
        # The rebuild check has teeth: a stale bit is caught.
        store.holders[0] |= 1 << (len(store.ids) + 3)
        with pytest.raises(AssertionError, match="holders"):
            store.check_consistency()

    def test_shared_book_completion_reaches_every_identity(self):
        """The shared book was filled after both identities joined, so
        each of its completions must have set both identities' bits,
        and one identity leaving must keep the other's."""
        swarm, peers = holder_swarm(16, seed=4)
        store = swarm.columnar
        shared = peers[3].book
        assert shared is peers[7].book and shared.completed
        row_3, row_7 = store.row_of[peers[3].id], store.row_of[peers[7].id]
        for piece in shared.completed:
            assert store.holders[piece] >> row_3 & 1
            assert store.holders[piece] >> row_7 & 1
        peers[3].leave()
        for piece in shared.completed:
            assert not store.holders[piece] >> row_3 & 1
            assert store.holders[piece] >> row_7 & 1
        store.check_consistency()


class TestTrackerSkipView:
    """The lazy announce population must draw identically to the
    materialized list the tracker used to build."""

    def _reference_announce(self, members, peer_id, rng, list_size):
        others = [m for m in sorted(members) if m != peer_id]
        if len(others) <= list_size:
            rng.shuffle(others)
            return others
        return rng.sample(others, list_size)

    @pytest.mark.parametrize("population,list_size", [
        (10, 50),     # shuffle branch
        (200, 50),    # sample branch
        (2000, 50),   # selection-set sampling regime
    ])
    def test_announce_matches_reference(self, population, list_size):
        rng = Random(5)
        tracker = Tracker(rng, list_size=list_size)
        ids = [f"P{i:05d}" for i in range(population)]
        for pid in ids:
            tracker.join(pid)
        # A few departures so the sorted list has seen removals too.
        for pid in ids[::7][:10]:
            tracker.leave(pid)
        members = set(ids) - set(ids[::7][:10])
        for requester in (ids[1], ids[-1], "P-unregistered"):
            state = rng.getstate()
            got = tracker.announce(requester)
            rng.setstate(state)
            want = self._reference_announce(
                members, requester, rng, list_size)
            assert got == want

    def test_join_leave_keep_sorted_list_consistent(self):
        rng = Random(3)
        tracker = Tracker(rng)
        ids = [f"N{i}" for i in range(40)]
        order = list(ids)
        rng.shuffle(order)
        for pid in order:
            tracker.join(pid)
            tracker.join(pid)  # idempotent
        assert tracker._sorted == sorted(ids)
        for pid in order[:15]:
            tracker.leave(pid)
            tracker.leave(pid)  # idempotent
        assert tracker._sorted == sorted(set(ids) - set(order[:15]))
        assert tracker.member_count == len(tracker._sorted)


class TestBenchCliDefaults:
    def test_cli_out_default_matches_bench_constant(self):
        from repro.cli import build_parser
        from repro.experiments.bench import DEFAULT_REPORT_PATH

        args = build_parser().parse_args(["bench", "--quick"])
        assert args.out == DEFAULT_REPORT_PATH
        assert DEFAULT_REPORT_PATH == "BENCH_PR10.json"
