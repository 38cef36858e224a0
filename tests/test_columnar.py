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
        events = []

        class Listener:
            def on_wanted_added(self, pid, piece):
                events.append(("wanted_added", piece))

        n = 8
        for initial in (range(n), (1, 2)):
            plain = self._book(n, initial)
            masked = adopt_book(self._book(n, initial))
            masked.set_listener(Listener(), "p1")
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
            assert events == []

    def test_listener_event_order_preserved(self):
        """wanted_removed still fires before completed_added."""
        events = []

        class Listener:
            def on_wanted_added(self, pid, piece):
                events.append(("wanted_added", piece))

            def on_wanted_removed(self, pid, piece):
                events.append(("wanted_removed", piece))

            def on_completed_added(self, pid, piece):
                events.append(("completed_added", piece))

        book = adopt_book(self._book())
        book.set_listener(Listener(), "p1")
        book.add_completed(3)
        assert events == [("wanted_removed", 3),
                          ("completed_added", 3)]
        events.clear()
        book.expect(4)
        assert events == [("wanted_removed", 4)]
        events.clear()
        book.unexpect(4)
        assert events == [("wanted_added", 4)]

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

        run_swarm(protocol="tchain", seed=9, leechers=6, pieces=5,
                  setup=setup,
                  extra={"columnar": True, "interest_index": False})
        books = {id(p.book) for p in captured["peers"]}
        assert len(books) == 1
        assert isinstance(captured["peers"][0].book, ColumnarBook)


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
