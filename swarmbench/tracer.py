"""Span recording for the benchmark's traced run.

The tracer lives entirely outside ``src/``.  It wraps the public
functions and methods of each layer (see :data:`LAYER_SPANS`) and
registers an observer through the engine's public
``Simulator.add_observer`` hook, so every fired event gets a callback
span charged to the module that defines the callback.

Spans stay in memory as parallel arrays (name id, start, end, parent
index, event id) and are written to disk only when the run ends.  A
span's index is assigned on entry, so index order is start order and a
parent always precedes its children.  Spans opened while one event
fires share that event's ``seq`` as their event id; spans outside the
event loop (swarm build, arrival scheduling) carry event id ``-1``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (owner path, attribute, span name, outcome) for every wrapped
#: function.  ``owner path`` names a class ("module:Class") or a module
#: ("module"); a module-level function is also rebound in every
#: ``repro`` module that imported it by name, because callers look it
#: up in their own globals.  ``outcome`` names a predicate on the return
#: value whose true count becomes the span's ratio numerator.
LAYER_SPANS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    # bt.peer, bt.swarm, net.topology: lifecycle and departure cascade
    ("repro.bt.peer:Peer", "leave", "peer.leave", None),
    ("repro.bt.peer:Peer", "refill_neighbors", "peer.refill_neighbors",
     None),
    ("repro.bt.peer:Peer", "pump", "peer.pump", None),
    ("repro.bt.peer:Peer", "choose_piece_from", "peer.choose_piece_from",
     "not_none"),
    ("repro.bt.swarm:Swarm", "connect", "swarm.connect", "true"),
    ("repro.net.topology:Topology", "remove_peer", "topology.remove_peer",
     None),
    ("repro.net.topology:Topology", "connect", "topology.connect", None),
    # bt.tracker
    ("repro.bt.tracker:Tracker", "announce", "tracker.announce", None),
    # T-Chain planner and exchange
    ("repro.bt.protocols.tchain:TChainLeecher", "next_upload",
     "tchain.next_upload", "not_none"),
    ("repro.bt.protocols.tchain:TChainSeeder", "next_upload",
     "tchain.next_upload", "not_none"),
    ("repro.core.policy", "select_payee", "policy.select_payee", None),
    ("repro.core.exchange:ExchangeLedger", "begin_chain",
     "exchange.begin_chain", None),
    ("repro.core.exchange:ExchangeLedger", "create_transaction",
     "exchange.create_transaction", None),
    ("repro.core.exchange:ExchangeLedger", "mark_delivered",
     "exchange.mark_delivered", None),
    ("repro.core.exchange:ExchangeLedger", "report_reciprocation",
     "exchange.report_reciprocation", None),
    ("repro.core.exchange:ExchangeLedger", "release_key",
     "exchange.release_key", None),
    ("repro.core.exchange:ExchangeLedger", "reopen", "exchange.reopen",
     None),
    ("repro.core.exchange:ExchangeLedger", "forgive", "exchange.forgive",
     None),
    ("repro.core.exchange:ExchangeLedger", "abort", "exchange.abort",
     None),
    ("repro.core.exchange:ExchangeLedger", "reassign_payee",
     "exchange.reassign_payee", None),
    ("repro.core.exchange:ExchangeLedger", "terminate_chain",
     "exchange.terminate_chain", None),
    ("repro.core.flow_control:FlowController", "on_piece_sent",
     "flow.on_piece_sent", None),
    ("repro.core.flow_control:FlowController", "on_reciprocation_confirmed",
     "flow.on_reciprocation_confirmed", None),
    ("repro.core.flow_control:FlowController", "write_off",
     "flow.write_off", None),
    ("repro.core.flow_control:FlowController", "forget", "flow.forget",
     None),
    ("repro.core.flow_control:FlowController", "filter_eligible",
     "flow.filter_eligible", None),
    ("repro.core.flow_control:FlowController", "least_loaded",
     "flow.least_loaded", None),
    # peer state and piece choice
    ("repro.bt.columnar:ColumnarState", "interested_ids",
     "columnar.interested_ids", None),
    ("repro.bt.columnar:ColumnarState", "availability",
     "columnar.availability", None),
    ("repro.bt.columnar:ColumnarState", "has_provider",
     "columnar.has_provider", None),
    ("repro.bt.columnar:ColumnarState", "live_neighbors",
     "columnar.live_neighbors", None),
    ("repro.bt.columnar:ColumnarState", "adopt", "columnar.adopt", None),
    ("repro.bt.columnar:ColumnarState", "release", "columnar.release", None),
    ("repro.bt.columnar:ColumnarState", "on_deactivated",
     "columnar.on_deactivated", None),
    ("repro.bt.columnar:ColumnarState", "on_edge_added",
     "columnar.on_edge_added", None),
    ("repro.bt.columnar:ColumnarState", "on_edge_removed",
     "columnar.on_edge_removed", None),
    ("repro.bt.columnar:ColumnarBook", "add_completed",
     "columnar.book.add_completed", None),
    ("repro.bt.columnar:ColumnarBook", "expect", "columnar.book.expect",
     None),
    ("repro.bt.columnar:ColumnarBook", "unexpect", "columnar.book.unexpect",
     None),
    ("repro.bt.columnar:ColumnarBook", "needs_from",
     "columnar.book.needs_from", None),
    ("repro.bt.interest:InterestIndex", "add_peer", "interest.add_peer",
     None),
    ("repro.bt.interest:InterestIndex", "remove_peer",
     "interest.remove_peer", None),
    ("repro.bt.interest:InterestIndex", "on_wanted_added",
     "interest.on_wanted_added", None),
    ("repro.bt.interest:InterestIndex", "on_wanted_removed",
     "interest.on_wanted_removed", None),
    ("repro.bt.interest:InterestIndex", "on_completed_added",
     "interest.on_completed_added", None),
    ("repro.bt.interest:InterestIndex", "on_edge_added",
     "interest.on_edge_added", None),
    ("repro.bt.interest:InterestIndex", "on_edge_removed",
     "interest.on_edge_removed", None),
    ("repro.bt.interest", "wants_from", "interest.wants_from", None),
    ("repro.bt.interest", "wants_any_of", "interest.wants_any_of", None),
    ("repro.bt.interest", "offers_interest", "interest.offers_interest",
     None),
    ("repro.bt.interest", "needed_overlap", "interest.needed_overlap",
     None),
    ("repro.bt.piece_selection", "local_rarest_first",
     "piece_selection.lrf", None),
    # net.bandwidth
    ("repro.net.bandwidth:Uplink", "try_start", "uplink.try_start",
     "not_none"),
    ("repro.net.bandwidth:Uplink", "close", "uplink.close", None),
    # net.link, net.routing
    ("repro.net.link:NetworkModel", "transfer_floor", "net.transfer_floor",
     None),
    ("repro.net.link:NetworkModel", "control_fate", "net.control_fate",
     None),
    ("repro.net.routing:RouteTable", "path", "routing.path", None),
    # bt.choking
    ("repro.bt.choking:Choker", "rechoke", "choking.rechoke", None),
    ("repro.bt.choking:Choker", "rotate_optimistic",
     "choking.rotate_optimistic", None),
    # core.crypto
    ("repro.core.crypto:SealedPiece", "seal", "crypto.seal", None),
    ("repro.core.crypto:SealedPiece", "open", "crypto.open", None),
    # analysis.metrics, workloads
    ("repro.analysis.metrics:SwarmMetrics", "record_peer",
     "metrics.record_peer", None),
    ("repro.workloads.arrivals", "schedule_arrivals", "arrivals.schedule",
     None),
)

#: Hot one-line accessors: counted, never timed (a span per call would
#: cost more than the call).
LAYER_COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.net.topology:Topology", "sorted_neighbors",
     "topology.sorted_neighbors"),
    ("repro.bt.swarm:Swarm", "send_control", "swarm.send_control"),
    ("repro.sim.engine:Simulator", "schedule", "sim.scheduled"),
    ("repro.sim.engine:Simulator", "schedule_at", "sim.scheduled"),
)

OUTCOMES: Dict[str, Callable[[object], bool]] = {
    "not_none": lambda value: value is not None,
    "true": lambda value: value is True,
}

RUN_SPAN = "sim.run"
CALLBACK_PREFIX = "callbacks."


def _resolve(path: str):
    """The class or module an owner path names (imports it)."""
    module_name, _, class_name = path.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


def callback_module(func) -> str:
    """The ``repro`` module (prefix dropped) that defines a fired
    callback's function."""
    module = getattr(func, "__module__", None) or type(func).__module__
    return module[len("repro."):] if module.startswith("repro.") else module


def _noop() -> None:
    """The callback of the calibration events of
    :meth:`Tracer.event_floor`."""


class Tracer:
    """In-memory span recorder with install/uninstall patching.

    ``clock`` is injectable so the self-tests can drive exact times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.event = array("q")
        self.stack: List[int] = [-1]
        self.event_seq = -1
        #: count-only wrappers and outcome numerators, by name
        self.counts: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []
        #: callback code object (or callable type) -> callback span name id
        self._callback_ids: Dict[object, int] = {}
        self._periodic_task: Optional[type] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, start: Optional[float] = None) -> int:
        """Start a span under the innermost open one; returns its index.

        The clock is read last unless ``start`` was read already, so the
        bookkeeping falls outside the span.
        """
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.event.append(self.event_seq)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(self.clock() if start is None else start)
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order "
                               f"(innermost open span is {popped})")

    def span_wrapper(self, fn: Callable, name: str,
                     outcome: Optional[str] = None) -> Callable:
        """``fn`` recording one span per call (and counting outcomes)."""
        nid = self.name_id(name)
        ok = OUTCOMES[outcome] if outcome else None
        ok_key = f"{name}.ok"
        if ok is not None:
            self.counts.setdefault(ok_key, 0)
        counts, open_, close = self.counts, self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if ok is not None and ok(result):
                counts[ok_key] += 1
            return result
        return wrapper

    def count_wrapper(self, fn: Callable, name: str) -> Callable:
        """``fn`` counting its calls under ``name`` (no span)."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, path: str, attr: str, make: Callable[[Callable],
                                                         Callable]) -> None:
        """Replace ``attr`` of a class or module by ``make(original)``.

        A module function is also rebound wherever another ``repro``
        module imported it by name.
        """
        owner = _resolve(path)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        self._set(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        for module_name, module in sorted(sys.modules.items()):
            if module is owner or not module_name.startswith("repro"):
                continue
            if getattr(module, attr, None) is raw:
                self._set(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary, the event loop and the engine's
        event counters.  Call before building the swarm."""
        import repro.experiments  # noqa: F401  (imports every layer)
        from repro.sim.events import PeriodicTask
        self._periodic_task = PeriodicTask
        for path, attr, name, outcome in LAYER_SPANS:
            self.patch(path, attr, lambda fn, name=name, outcome=outcome:
                       self.span_wrapper(fn, name, outcome))
        for path, attr, name in LAYER_COUNTS:
            self.patch(path, attr, lambda fn, name=name:
                       self.count_wrapper(fn, name))
        self.patch("repro.bt.swarm:Swarm", "run", self._run_wrapper)
        self.patch("repro.sim.engine:Simulator", "step", self._step_wrapper)
        self.patch("repro.sim.engine:EventHandle", "cancel",
                   self._cancel_wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Event loop hooks
    # ------------------------------------------------------------------
    def _run_wrapper(self, run: Callable) -> Callable:
        nid = self.name_id(RUN_SPAN)
        tracer = self

        @functools.wraps(run)
        def traced_run(swarm, *args, **kwargs):
            swarm.sim.add_observer(tracer.observe)
            index = tracer.open(nid)
            try:
                return run(swarm, *args, **kwargs)
            finally:
                tracer.close(index)
        return traced_run

    def observe(self, handle) -> None:
        """Engine observer: open the callback span of the event about
        to fire; :meth:`_step_wrapper` closes it when ``step`` returns.

        The clock is read first, so finding the callback's module is
        charged to the callback span, not to the engine's own time.  A
        periodic task's tick is charged to the task's callback, so
        timers land on the layer that owns them.
        """
        now = self.clock()
        self.event_seq = handle.seq
        callback = handle.callback
        owner = getattr(callback, "__self__", None)
        if owner.__class__ is self._periodic_task:
            callback = owner.callback
        func = getattr(callback, "__func__", callback)
        key = getattr(func, "__code__", None) or type(func)
        nid = self._callback_ids.get(key)
        if nid is None:
            nid = self._callback_ids[key] = self.name_id(
                CALLBACK_PREFIX + callback_module(func))
        self.open(nid, now)

    def event_floor(self, events: int = 20000) -> float:
        """Loop self time per event when events do nothing, in seconds.

        Fires ``events`` no-op events on a fresh simulator under this
        tracer's observer and ``step`` wrapper, inside a run span, and
        returns the span's self time per event.  That is the tracer's
        own per-event bookkeeping plus the engine's cheapest per-event
        work (heap pop, observer dispatch).  Call between
        :meth:`install` and the workload; the calibration's spans and
        counts are dropped.
        """
        from repro.sim.engine import Simulator
        counts = dict(self.counts)
        mark = len(self.start)
        sim = Simulator()
        for i in range(events):
            sim.schedule(float(i), _noop)
        sim.add_observer(self.observe)
        index = self.open(self.name_id(RUN_SPAN))
        sim.run()
        self.close(index)
        own = self.end[index] - self.start[index] - sum(
            self.end[i] - self.start[i]
            for i in range(index + 1, len(self.start)))
        for column in (self.name, self.start, self.end, self.parent,
                       self.event):
            del column[mark:]
        self.counts.clear()
        self.counts.update(counts)
        return own / events

    def _step_wrapper(self, step: Callable) -> Callable:
        tracer = self

        @functools.wraps(step)
        def traced_step(sim):
            depth = len(tracer.stack)
            try:
                return step(sim)
            finally:
                if len(tracer.stack) > depth:
                    tracer.close(tracer.stack[-1])
                tracer.event_seq = -1
        return traced_step

    def _cancel_wrapper(self, cancel: Callable) -> Callable:
        counts = self.counts
        counts["sim.cancelled"] = 0

        @functools.wraps(cancel)
        def counted_cancel(handle):
            if not handle.cancelled:
                counts["sim.cancelled"] += 1
            return cancel(handle)
        return counted_cancel

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:i", "start:d", "end:d", "parent:i",
                             "event:q"]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent,
                           self.event):
                column.tofile(out)


def load_spans(path: str) -> Dict[str, object]:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        n = header["spans"]
        columns = {}
        for spec in header["arrays"]:
            key, code = spec.split(":")
            column = array(code)
            column.fromfile(src, n)
            columns[key] = column
    return {"names": header["names"], **columns}


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping and nested intervals count once; empty and zero-length
    ones count nothing.
    """
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the union of its child spans."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append((start[index], end[index]))
    own = [e - s for s, e in zip(start, end)]
    for up, kids in children.items():
        own[up] -= union_length(kids, start[up], end[up])
    return own


def summarize(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` (union of the name's
    spans, so recursion counts once) and ``self_s``."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    by_name: Dict[int, List[int]] = {}
    for index, nid in enumerate(tracer.name):
        by_name.setdefault(nid, []).append(index)
    start, end = tracer.start, tracer.end
    table = {}
    for nid, indices in by_name.items():
        table[tracer.names[nid]] = {
            "calls": len(indices),
            "s": union_length((start[i], end[i]) for i in indices),
            "self_s": sum(own[i] for i in indices),
        }
    return table
