"""Golden result digests at a many-piece file size.

The bit-identical seeded trace is the oracle for every performance
change to the default backend (columnar books plus the interest
index).  These digests were captured before the piece-choice paths
started answering from the bitmasks directly; a changed digest means
the simulation itself changed, not just its speed.

The digest covers the same fields as ``swarmbench/child.result_digest``:
every peer record's join, finish and leave times, pieces and kB, the
event count and the simulated end time (floats by ``repr``, exact).
300 pieces keeps the masks several bytes wide, so the byte-table
decoding and the ascending-order contract of ``mask_bits`` are both
exercised.
"""

import hashlib
import json

import pytest

from repro.experiments import run_swarm

SCENARIOS = {
    "tchain": dict(protocol="tchain", leechers=10,
                   freerider_fraction=0.25, pieces=300),
    "bittorrent": dict(protocol="bittorrent", leechers=10, pieces=300),
}

GOLDEN = {
    ("tchain", 7):
        "2a79dbc728998e7614475b6d839747839fdbaf5dbc240805ba708b9ffafa356b",
    ("tchain", 3):
        "ac4d711a17b6778a2efa34fb27c909e04715f6d02226527a7a528ffe7fa2f6ae",
    ("bittorrent", 7):
        "2382b18753687878766ad152d170c78788c644ceb5a98df0f1f296b613f1d48e",
    ("bittorrent", 3):
        "dd358956b3279ae88a6a95fd35b051507f8717e6f83f372c0f17dd4422254df4",
}


def result_digest(result) -> str:
    """sha256 over what the run simulated (see module docstring)."""
    rows = [[r.peer_id, r.kind, repr(r.join_time), repr(r.finish_time),
             repr(r.leave_time), r.pieces_completed, r.pieces_downloaded,
             r.pieces_uploaded, repr(r.kb_downloaded), repr(r.kb_uploaded)]
            for r in result.metrics.records]
    sim = result.swarm.sim
    blob = json.dumps([rows, sim.events_fired, repr(sim.now)])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("protocol,seed", sorted(GOLDEN))
def test_default_backend_matches_golden_digest(protocol, seed):
    result = run_swarm(seed=seed, **SCENARIOS[protocol])
    assert result.swarm.columnar is not None
    assert result.swarm.interest is not None
    assert result_digest(result) == GOLDEN[(protocol, seed)]
