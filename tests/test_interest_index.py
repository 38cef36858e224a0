"""Interest-index regression suite.

Two contracts are under test (``repro.bt.interest``):

* **Trace neutrality** — T-Chain's tracked-peer lookups reproduce, bit
  for bit, the full event trace and final metrics pinned in
  ``tests/test_golden_digests.py`` from the naive ``neighbor_peers()``
  rescans they replaced.
* **Consistency under churn** — after *every* fired event in a
  scenario full of joins, completion-leaves, whitewash rebrands,
  crashes and flow-window churn, the tracked set must equal the active
  registered peers (``InterestIndex.check_consistency``), the columnar
  tables including the LRF holder columns must equal a from-scratch
  rebuild (``ColumnarState.check_consistency``), and each T-Chain
  node's ``_flow_blocked`` mirror must equal the flow controller's
  actual over-window set.

A third suite pins the interest predicates themselves: on seeded
random books, with and without stalled neighbors and a departed
peer, each one equals the plain set intersection and the naive
neighbor walk it stands for.
"""

from random import Random

import pytest

from repro.bt.config import SwarmConfig
from repro.bt.interest import offers_interest, wants_from
from repro.bt.protocols.tchain import TChainLeecher
from repro.bt.swarm import Swarm
from repro.experiments import run_swarm
from tests.test_golden_digests import GOLDEN_TRACES, trace_digest


#: Whitewashing free-riders + completion-leaves exercise every index
#: lifecycle edge the T-Chain scenario can produce.
TCHAIN_SCENARIO = dict(leechers=14, pieces=10, freerider_fraction=0.25)


class TestTraceNeutrality:
    def test_tchain_full_trace_bit_identical(self):
        assert trace_digest(protocol="tchain", seed=7,
                            **TCHAIN_SCENARIO) \
            == GOLDEN_TRACES["tchain-churn-7"]

    def test_index_enabled_by_default(self):
        result = run_swarm(protocol="tchain", seed=3, leechers=6,
                           pieces=5)
        assert result.swarm.interest is not None

    @pytest.mark.parametrize("protocol", ["bittorrent", "propshare",
                                          "fairtorrent", "random"])
    def test_baseline_protocols_bit_identical(self, protocol):
        assert trace_digest(protocol=protocol, seed=7, leechers=10,
                            pieces=8) == GOLDEN_TRACES[f"{protocol}-7"]


def _assert_flow_mirrors(swarm):
    """Every T-Chain node's blocked set mirrors flow eligibility."""
    for peer in swarm.peers.values():
        blocked = getattr(peer, "_flow_blocked", None)
        if blocked is None or not peer.active:
            continue
        flow = peer.flow
        expected = {nid for nid, count in flow._pending.items()
                    if count >= flow.pending_limit}
        assert blocked == expected, (
            f"{peer.id}: blocked {sorted(blocked)} != "
            f"{sorted(expected)}")


class TestChurnConsistency:
    """The randomized-churn property test: index == naive rescan
    after every event."""

    def test_index_matches_rescan_after_every_event(self):
        checks = 0

        def setup(swarm):
            def crash_one():
                # Deterministic mid-run crash: the first active
                # non-seeder joins the churn mix.
                for pid in sorted(swarm.peers):
                    peer = swarm.peers[pid]
                    if peer.active and peer.kind != "seeder":
                        peer.crash()
                        return

            swarm.sim.schedule(40.0, crash_one)

            def check(_handle):
                nonlocal checks
                swarm.interest.check_consistency()
                swarm.columnar.check_consistency()
                _assert_flow_mirrors(swarm)
                checks += 1

            swarm.sim.add_observer(check)

        run_swarm(protocol="tchain", seed=11, setup=setup,
                  **TCHAIN_SCENARIO)
        assert checks > 200  # the property was actually exercised

    def test_final_state_consistent_for_baselines(self):
        for protocol in ("bittorrent", "propshare"):
            result = run_swarm(protocol=protocol, seed=5, leechers=8,
                               pieces=6)
            result.swarm.interest.check_consistency()


class TestSanitizedChaosRun:
    def test_sanitizer_clean_with_index_on(self):
        """The simulation sanitizer stays quiet over an index-enabled
        churn scenario (conservation + fair-exchange invariants)."""
        result = run_swarm(protocol="tchain", seed=13, sanitize=True,
                           **TCHAIN_SCENARIO)
        assert result.swarm.interest is not None
        assert result.swarm.sim.events_fired > 200


# ----------------------------------------------------------------------
# Interest predicates == naive set intersections
# ----------------------------------------------------------------------
def random_swarm(n_pieces, seed, n_peers=14, stalled=True,
                 departed=True):
    """A joined T-Chain swarm (no event run) with seeded random books
    and a sparse topology.  ``stalled`` adds some in-flight,
    flow-blocked and backed-off neighbors; ``departed`` deactivates
    one peer that stays in the topology."""
    rng = Random(seed)
    swarm = Swarm(SwarmConfig(
        n_pieces=n_pieces, seed=seed, max_neighbors=5,
        refill_threshold=2, tracker_list_size=4))
    peers = []
    for i in range(n_peers):
        # Zero capacity: pump never plans, so the books stay as set.
        peer = TChainLeecher(swarm, f"L{i:02d}", capacity_kbps=0.0)
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
    for peer in peers if stalled else ():
        for nid in sorted(peer.neighbors()):
            roll = rng.random()
            if roll < 0.15:
                peer._in_flight_to.add(nid)
            elif roll < 0.3:
                for _ in range(peer.flow.pending_limit):
                    peer.flow.on_piece_sent(nid)
            elif roll < 0.45:
                peer._banned_until[nid] = swarm.sim.now + 1.0
    if departed:
        # Deactivated mid-departure: still in the topology, no longer
        # live.
        gone = peers[-1]
        gone.active = False
        swarm.note_deactivated(gone)
    return swarm, peers, rng


def naive_wants(wanter, pieces):
    return bool(set(wanter.book.wanted()) & set(pieces))


@pytest.mark.parametrize("n_pieces", [4, 64, 512])
@pytest.mark.parametrize("stalled,departed",
                         [(s, d) for s in (False, True)
                          for d in (False, True)])
def test_predicates_equal_set_intersections(n_pieces, stalled, departed):
    for seed in (1, 2, 3):
        swarm, peers, rng = random_swarm(n_pieces, seed,
                                         stalled=stalled,
                                         departed=departed)
        live = [p for p in peers if p.active]
        for me in live:
            mine = set(me.book.completed)
            neighbors = [swarm.peers[nid]
                         for nid in swarm.topology.sorted_neighbors(me.id)]
            live_neighbors = [p for p in neighbors if p.active]
            for other in peers:
                theirs = set(other.book.completed)
                assert wants_from(me, other) == naive_wants(me, theirs)
                assert me.is_interested_in(other) \
                    == naive_wants(me, theirs)
                assert offers_interest(other, (), me) \
                    == naive_wants(me, theirs)
                extra = (rng.randrange(n_pieces),)
                assert offers_interest(other, extra, me) \
                    == naive_wants(me, theirs | set(extra))
            assert me.interested_neighbors() == [
                p.id for p in live_neighbors if naive_wants(p, mine)]
            ids = [p.id for p in neighbors]
            assert me.serveable(ids) == sorted(
                p.id for p in live_neighbors
                if p.id not in me._in_flight_to and naive_wants(p, mine))
            assert me._eligible_requestors() == sorted(
                p.id for p in live_neighbors
                if p.id not in me._in_flight_to
                and me.flow.eligible(p.id) and me.cooperative(p.id)
                and naive_wants(p, mine))
            for requestor in live_neighbors:
                offered = {rng.randrange(n_pieces)}
                offer = set(requestor.book.completed) | offered
                assert me._payee_candidates(requestor, offered) == sorted(
                    p.id for p in live_neighbors
                    if p is not requestor and me.cooperative(p.id)
                    and naive_wants(p, offer))
