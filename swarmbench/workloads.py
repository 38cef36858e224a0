"""The pinned swarm workloads of the benchmark.

Each workload is one call of the public
:func:`repro.experiments.run_swarm` in its default configuration
(columnar state and interest index on, pools on, no timer coalescing,
no tracemalloc).  Only the shape is pinned here; the simulation seed
comes from the benchmark's ``--seed`` argument.

``TINY`` holds a small variant of every workload with the same
protocol, arrival model and substrate.  The self-tests smoke both
benchmark paths with it; its numbers are not benchmark results.
"""

from __future__ import annotations

import copy

#: The lossy three-datacenter substrate of ``bt_wan``
#: (repro.net.topogen.graph_from_spec format).
WAN_SPEC = {"topology": "multi_dc", "loss": 0.02, "jitter_ms": 10.0}

WORKLOADS = {
    "flash_crowd": {
        "why": "peer-count axis: departure cascade, neighbor refill, "
               "tracker and interest index, almost no per-piece work",
        "kwargs": dict(protocol="tchain", leechers=1500, pieces=4,
                       piece_size_kb=64.0, arrival="flash"),
    },
    "paper_file": {
        "why": "Fig. 7 at the paper's piece count: obligations, payee "
               "and piece choice, interest index, uplink scheduling",
        "kwargs": dict(protocol="tchain", leechers=40,
                       freerider_fraction=0.25, pieces=512,
                       piece_size_kb=64.0, arrival="flash"),
    },
    "trace_churn": {
        "why": "Fig. 9: continuous arrivals and departures drive "
               "tracker, refill and the T-Chain recovery paths",
        "kwargs": dict(protocol="tchain", leechers=300,
                       freerider_fraction=0.25, pieces=32,
                       arrival="trace"),
    },
    "bt_wan": {
        "why": "control: same peer, uplink and state layers, no T-Chain "
               "code; the only run of choking, net.link and routing",
        "kwargs": dict(protocol="bittorrent", leechers=800, pieces=64,
                       arrival="trace", extra={"net": WAN_SPEC}),
    },
}

TINY = {
    "flash_crowd": dict(WORKLOADS["flash_crowd"]["kwargs"], leechers=30),
    "paper_file": dict(WORKLOADS["paper_file"]["kwargs"], leechers=8,
                       pieces=16),
    "trace_churn": dict(WORKLOADS["trace_churn"]["kwargs"], leechers=16,
                        pieces=8, trace_horizon_s=200.0),
    "bt_wan": dict(WORKLOADS["bt_wan"]["kwargs"], leechers=16, pieces=8,
                   trace_horizon_s=200.0),
}


def swarm_kwargs(name: str, tiny: bool = False) -> dict:
    """``run_swarm`` keyword arguments of a workload (seed excluded)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(WORKLOADS)}")
    return copy.deepcopy(TINY[name] if tiny else WORKLOADS[name]["kwargs"])
