"""Golden result and trace digests.

The bit-identical seeded trace is the oracle for every performance
change to peer state (bitmask books, columnar rows, holder columns).
The result digests below were captured before the piece-choice paths
started answering from the bitmasks directly; a changed digest means
the simulation itself changed, not just its speed.

The digest covers the same fields as ``swarmbench/child.result_digest``:
every peer record's join, finish and leave times, pieces and kB, the
event count and the simulated end time (floats by ``repr``, exact).
300 pieces keeps the masks several bytes wide, so the byte-table
decoding and the ascending-order contract of ``mask_bits`` are both
exercised.

:data:`GOLDEN_TRACES` pins :func:`trace_digest` (full event trace plus
result digest) for the scenarios of ``tests/test_columnar.py`` and
``tests/test_interest_index.py``.  Each was captured while the
set-backed books and the naive neighbor walks still existed, and all
four on/off combinations of those two reference paths gave the same
digest, so the pinned value is the naive reference's trace.
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


#: ``trace_digest`` of each reference scenario (see module docstring).
GOLDEN_TRACES = {
    "tchain-churn-7":
        "7b49b9f3f2daa2df1a0130744a59753da0acf6fd7440651be56414151be4f2f7",
    "bittorrent-7":
        "b1c1c8db1b9cec1c27ac161e9901a1e694a956cc2dc1bd3b45218b0fda80c5c6",
    "tchain-churn-11":
        "56bec8c84d4dce9d8f5c6d828a3af0deced35d58a7abe146092bdd53204ed08a",
    "bittorrent-11":
        "1d58827e0a2d0b52fc3b27999b2b2f8794cd11ee14152e0dcd7c38f5d9f56faf",
    "tchain-churn-23":
        "6bfd4bf55cc60d1a12a02a96132fa466ecb9d8e080d6733af21b87a97f58ba9a",
    "bittorrent-23":
        "869227292d1add25c2a95bfced72e5aedd407f07fbee1bae32b0325fd0550b83",
    "propshare-7":
        "547e1297f6a0b634071f043e95e1e8f4e1a6881a79e5ffd1291afce174568ca0",
    "random-7":
        "992655a4bc32585646c440c26d85c599eb2a775fae836e40afa205a69c9efbc9",
    "fairtorrent-7":
        "ea41b3ddeb8a78d941bb3fe9fa0e48f216a8745e2712f81b9a98c28c74cebb0c",
    "tchain-300-7":
        "a2964167a0e3de40cabfc1c54fa85c66df669fba94c8856b42c4d496feccff33",
    "sybil-bittorrent":
        "7974c555ed4fd2aa839ecbd369faba4dc0ff450a32faeb0855680c47d996f4ee",
    "sybil-tchain":
        "23ef5e486cba3c9897d7dd26ab80a53ee28e20e1f720627b03b5f4d4c65dfd1e",
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


def trace_digest(setup=None, **kwargs) -> str:
    """sha256 over a run's full event trace plus its result digest.

    The trace is every fired event as ``(repr(time), seq, callback
    qualname)``.  ``setup`` (optional) runs after the trace observer is
    installed; the remaining keywords go to ``run_swarm``.
    """
    trace = []

    def install(swarm):
        swarm.sim.add_observer(
            lambda handle: trace.append(
                (repr(handle.time), handle.seq,
                 handle.callback.__qualname__)))
        if setup is not None:
            setup(swarm)

    result = run_swarm(setup=install, **kwargs)
    blob = json.dumps([trace, result_digest(result)])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("protocol,seed", sorted(GOLDEN))
def test_default_backend_matches_golden_digest(protocol, seed):
    result = run_swarm(seed=seed, **SCENARIOS[protocol])
    assert result_digest(result) == GOLDEN[(protocol, seed)]
