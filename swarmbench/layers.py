"""The per-layer table of the traced run.

:data:`PER_LAYER` is the single list of per-layer metrics (name, unit,
better direction); ``BENCHMARK.json`` lists the same names and a
self-test keeps the two equal.  :func:`layer_metrics` fills every one of
them from a finished traced run.  A ratio whose denominator is zero
reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import CALLBACK_PREFIX, LAYER_SPANS, RUN_SPAN, Tracer, summarize

#: Modules whose callbacks the four workloads fire; any other module's
#: callback time is charged to ``callbacks.other``.
CALLBACK_MODULES = (
    "bt.peer", "bt.swarm", "bt.protocols.tchain", "bt.protocols.bittorrent",
    "attacks.freerider", "net.bandwidth", "workloads.arrivals",
)

#: A layer's self time: the summed self time of the spans whose names
#: start with the prefix.
LAYER_SELF = {
    "columnar.self_s": "columnar.",
    "exchange.self_s": "exchange.",
    "flow.self_s": "flow.",
    "interest.self_s": "interest.",
    "uplink.self_s": "uplink.",
    "crypto.self_s": "crypto.",
}

NET_COUNTERS = ("control_sent", "control_dropped", "control_unroutable",
                "transfers_priced", "transfers_unroutable",
                "partitions_applied", "partitions_healed", "links_severed",
                "links_restored")

RECOVERY_COUNTERS = ("control_dropped", "control_delayed", "stalls",
                     "crashes", "report_retransmits", "key_retransmits",
                     "key_timeouts", "pleads", "reopens", "forgives",
                     "orphaned_chains", "dead_letters")

SPAN_NAMES = {name for _, _, name, _ in LAYER_SPANS}

_LOWER, _HIGHER = "lower", "higher"


def _spec() -> List[Tuple[str, str, str]]:
    rows = [
        ("sim.events", "count", _LOWER),
        ("sim.scheduled", "count", _LOWER),
        ("sim.cancelled", "count", _LOWER),
        ("sim.compactions", "count", _LOWER),
        ("sim.self_s", "s", _LOWER),
        ("sim.us_per_event", "us", _LOWER),
    ]
    for name in ("peer.leave", "peer.refill_neighbors",
                 "peer.choose_piece_from", "tchain.next_upload"):
        rows += [(f"{name}.calls", "count", _LOWER),
                 (f"{name}.s", "s", _LOWER)]
    for name in ("topology.remove_peer", "swarm.connect", "topology.connect",
                 "peer.pump", "tracker.announce", "policy.select_payee",
                 "columnar.interested_ids", "columnar.availability",
                 "piece_selection.lrf", "net.transfer_floor", "routing.path",
                 "choking.rechoke", "metrics.record_peer"):
        rows += [(f"{name}.calls", "count", _LOWER),
                 (f"{name}.self_s", "s", _LOWER)]
    rows += [(name, "count", _LOWER) for name in (
        "topology.sorted_neighbors.calls", "swarm.send_control.calls",
        "exchange.create_transaction.calls", "exchange.release_key.calls",
        "exchange.forgive.calls", "exchange.abort.calls",
        "uplink.try_start.calls", "net.control_fate.calls",
        "choking.rotate_optimistic.calls", "crypto.seal.calls",
        "crypto.open.calls")]
    rows += [(name, "ratio", _HIGHER) for name in (
        "swarm.connect.ok_ratio", "tchain.next_upload.plan_ratio",
        "peer.choose_piece_from.hit_ratio", "uplink.try_start.ok_ratio")]
    rows += [("tracker.announce.per_peer", "count/peer", _LOWER),
             ("uplink.utilization_mean", "share", _HIGHER),
             ("arrivals.schedule.s", "s", _LOWER)]
    rows += [(name, "s", _LOWER) for name in LAYER_SELF]
    rows += [(f"net.counters.{key}", "count", _LOWER) for key in NET_COUNTERS]
    rows += [(f"recovery.{key}", "count", _LOWER)
             for key in RECOVERY_COUNTERS]
    rows += [(f"{CALLBACK_PREFIX}{module}.self_s", "s", _LOWER)
             for module in CALLBACK_MODULES + ("other",)]
    rows += [("trace.unattributed_frac", "share", _LOWER),
             ("trace.event_floor_us", "us", _LOWER),
             ("trace.overhead", "ratio", _LOWER)]
    return rows


PER_LAYER: List[Tuple[str, str, str]] = _spec()
UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, result,
                  event_floor: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value except ``trace.overhead`` (the
    parent fills that in from the untraced run) and
    ``sim.us_per_event`` (also from the untraced run).

    ``event_floor`` is :meth:`Tracer.event_floor`: the loop self time
    per event when events do nothing, that is the tracer's bookkeeping
    plus the engine's cheapest per-event work.  ``sim.self_s`` leaves
    it out, so it is a lower bound on the engine's own time and holds
    no tracer cost.
    """
    floor_s = event_floor * result.swarm.sim.events_fired
    table = summarize(tracer)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name: str) -> Dict[str, float]:
        return table.get(name, empty)

    counts = tracer.counts
    sim = result.swarm.sim
    out: Dict[str, float] = {
        "sim.events": sim.events_fired,
        "sim.scheduled": counts["sim.scheduled"],
        "sim.cancelled": counts["sim.cancelled"],
        "sim.compactions": sim.compactions,
        "sim.self_s": max(0.0, span(RUN_SPAN)["self_s"] - floor_s),
        "trace.event_floor_us": 1e6 * event_floor,
    }
    for name, _, _ in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if name in out:
            continue
        if field == "calls":
            out[name] = counts[stem] if stem in counts \
                else span(stem)["calls"]
        elif field in ("s", "self_s") and stem in SPAN_NAMES:
            out[name] = span(stem)[field]
    for name, prefix in LAYER_SELF.items():
        out[name] = sum(row["self_s"] for key, row in table.items()
                        if key.startswith(prefix))
    for name, stem in (("swarm.connect.ok_ratio", "swarm.connect"),
                       ("tchain.next_upload.plan_ratio",
                        "tchain.next_upload"),
                       ("peer.choose_piece_from.hit_ratio",
                        "peer.choose_piece_from"),
                       ("uplink.try_start.ok_ratio", "uplink.try_start")):
        out[name] = _ratio(counts.get(f"{stem}.ok", 0), span(stem)["calls"])
    peers = len(result.metrics.records)
    out["tracker.announce.per_peer"] = _ratio(
        span("tracker.announce")["calls"], peers)
    out["uplink.utilization_mean"] = \
        result.metrics.mean_utilization("leecher") or 0.0
    net = result.swarm.net
    snapshot = net.counters.snapshot() if net is not None else {}
    for key in NET_COUNTERS:
        out[f"net.counters.{key}"] = snapshot.get(key, 0)
    recovery = result.metrics.recovery.as_dict()
    for key in RECOVERY_COUNTERS:
        out[f"recovery.{key}"] = recovery[key]
    callbacks = {f"{CALLBACK_PREFIX}{m}.self_s": 0.0
                 for m in CALLBACK_MODULES + ("other",)}
    unattributed = out["sim.self_s"]
    for key, row in table.items():
        if not key.startswith(CALLBACK_PREFIX):
            continue
        slot = f"{key}.self_s"
        if slot not in callbacks:
            slot = f"{CALLBACK_PREFIX}other.self_s"
        callbacks[slot] += row["self_s"]
        unattributed += row["self_s"]
    out.update(callbacks)
    out["trace.unattributed_frac"] = _ratio(
        unattributed, span(RUN_SPAN)["s"] - floor_s)
    return out
