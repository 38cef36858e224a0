"""One repetition of one workload, in a fresh process.

Run by ``run.py``; prints one JSON object on its last stdout line.
``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, the
``repro`` import, the swarm build and arrival scheduling, and ends when
``Swarm.run`` (the event loop) is entered.

With ``--spans PATH`` the run is traced (see ``tracer.py``) and the
per-layer table is added to the output; the spans are written to PATH.
Any failed output check exits non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class CheckFailed(RuntimeError):
    """An output check of the benchmark failed."""


def result_digest(result) -> str:
    """sha256 over what the run simulated: every peer record's join,
    finish and leave times, pieces and kB, the event count and the
    simulated end time (floats by ``repr``, exact)."""
    rows = [[r.peer_id, r.kind, repr(r.join_time), repr(r.finish_time),
             repr(r.leave_time), r.pieces_completed, r.pieces_downloaded,
             r.pieces_uploaded, repr(r.kb_downloaded), repr(r.kb_uploaded)]
            for r in result.metrics.records]
    sim = result.swarm.sim
    blob = json.dumps([rows, sim.events_fired, repr(sim.now)])
    return hashlib.sha256(blob.encode()).hexdigest()


def check_outputs(result) -> dict:
    """Failure accounting plus the output checks; raises CheckFailed."""
    n_pieces = result.config.n_pieces
    compliant = result.metrics.compliant_leechers()
    if len(compliant) != result.n_compliant:
        raise CheckFailed(f"{len(compliant)} compliant records for "
                          f"{result.n_compliant} compliant leechers")
    finished = [r for r in compliant if r.completed]
    short = [r.peer_id for r in finished if r.pieces_completed != n_pieces]
    if short:
        raise CheckFailed(f"finished leechers missing pieces: {short[:5]}")
    return {"ops_attempted": len(compliant),
            "ops_failed": len(compliant) - len(finished),
            "downloads": len(finished)}


def run_once(workload: str, seed: int, spawned_at: float,
             tiny: bool = False, spans_path=None) -> dict:
    """Run the workload once; return the measurements and checks."""
    from workloads import swarm_kwargs
    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        event_floor = tracer.event_floor()
    from repro.bt.swarm import Swarm
    from repro.experiments import run_swarm

    loop = {}
    timed_run = Swarm.run

    def run_and_time(swarm, *args, **kwargs):
        loop["start"] = time.monotonic()
        try:
            return timed_run(swarm, *args, **kwargs)
        finally:
            loop["end"] = time.monotonic()

    Swarm.run = run_and_time
    try:
        result = run_swarm(seed=seed, **swarm_kwargs(workload, tiny))
    finally:
        Swarm.run = timed_run
        if tracer is not None:
            tracer.uninstall()
    sim = result.swarm.sim
    out = {
        "workload": workload, "seed": seed,
        "setup_s": loop["start"] - spawned_at,
        "run_s": loop["end"] - loop["start"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": sim.events_fired,
        "sim_end_s": sim.now,
        "digest": result_digest(result),
    }
    out.update(check_outputs(result))
    if tracer is not None:
        from layers import layer_metrics
        out["layers"] = layer_metrics(tracer, result, event_floor)
        tracer.write(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    try:
        out = run_once(args.workload, args.seed, args.spawned_at,
                       tiny=args.tiny, spans_path=args.spans)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
