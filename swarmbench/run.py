"""Swarm simulator benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 swarmbench/run.py --workload flash_crowd --seed 7 \\
        --seconds 40 --trace 0

Every repetition runs the workload in a fresh single-threaded process
(``child.py``), one at a time.  With ``--trace 0`` repetitions run until
``--seconds`` have passed (at least :data:`MIN_REPS`) and the end-to-end
metrics are the medians over them.  The fixed reference job
(``reference.py``) runs before the first repetition and after each one;
a repetition's times are scaled to the host speed at which that job
takes :data:`REFERENCE_S`, using the two reference times around it.
With ``--trace 1`` one untraced and one traced repetition run and the
per-layer table is reported; the spans are written under
``swarmbench/out/``.

Output checks on every run: each finished compliant leecher holds every
piece, every repetition of the run has the same result digest, and the
traced digest equals the untraced one.  A failed check prints
``"correct": false`` with no metrics and exits 1.  The last stdout line
is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
BASELINE = os.path.join(HERE, "baseline.json")
OUT_DIR = os.path.join(HERE, "out")

#: Fewest repetitions a timed run takes, however short ``--seconds``.
MIN_REPS = 3
#: Timed metrics are in seconds of a host on which the reference job
#: takes this long.
REFERENCE_S = 1.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "downloads_per_s": "1/s",
    "peak_rss_mb": "MB",
    "complete_frac": "share",
}

sys.path.insert(0, HERE)

from layers import UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchFailure(RuntimeError):
    """A repetition crashed, timed out or failed an output check."""


def run_child(workload: str, seed: int, tiny: bool,
              spans: Optional[str] = None) -> Dict:
    """One repetition in a fresh process; its JSON result."""
    cmd = [sys.executable, CHILD, "--workload", workload,
           "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", spans]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchFailure(f"{workload} repetition exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reference() -> float:
    """Seconds the reference job takes now, in a fresh process."""
    proc = subprocess.run([sys.executable, REFERENCE], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchFailure(f"reference job exited {proc.returncode}")
    return float(proc.stdout)


def check_same(reps: List[Dict]) -> None:
    """Every repetition simulated exactly the same run."""
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        raise BenchFailure(f"result digests differ between repetitions "
                           f"({', '.join(sorted(digests))})")


def end_to_end(reps: List[Dict]) -> Dict[str, float]:
    """Medians over repetitions of the end-to-end metrics, with each
    repetition's times multiplied by its host-speed ``scale``."""
    median = statistics.median
    return {
        "setup_s": median([r["setup_s"] * r["scale"] for r in reps]),
        "run_s": median([r["run_s"] * r["scale"] for r in reps]),
        "downloads_per_s": median([r["downloads"] / (r["run_s"] * r["scale"])
                                   for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "complete_frac": reps[0]["downloads"] / reps[0]["ops_attempted"],
    }


def baseline_note(rep: Dict) -> str:
    """Compare the digest with the one recorded in baseline.json."""
    try:
        with open(BASELINE) as src:
            recorded = json.load(src)["digests"]
    except (OSError, KeyError, ValueError):
        return "no baseline.json"
    entry = recorded.get(rep["workload"], {}).get(str(rep["seed"]))
    if entry is None:
        return f"no recorded digest for seed {rep['seed']}"
    if entry == rep["digest"]:
        return "matches the recorded baseline"
    return f"DIFFERS from the recorded baseline {entry[:16]}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, out_dir: str = OUT_DIR) -> Dict:
    """Run the repetitions and build the result object."""
    started = time.monotonic()
    if trace:
        untraced = run_child(workload, seed, tiny)
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{workload}-s{seed}.bin")
        traced = run_child(workload, seed, tiny, spans=spans)
        reps = [untraced, traced]
        check_same(reps)
        layers = dict(traced["layers"])
        layers["sim.us_per_event"] = \
            1e6 * untraced["run_s"] / untraced["events"]
        layers["trace.overhead"] = traced["run_s"] / untraced["run_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in UNITS.items()}
        print(f"spans written to {spans}")
    else:
        reps, walls = [], []
        refs = [run_reference()]
        # Start another repetition only while one more of typical length
        # still fits in --seconds, so a run lasts about --seconds.
        while len(reps) < MIN_REPS or time.monotonic() - started + \
                statistics.median(walls) <= seconds:
            rep_started = time.monotonic()
            rep = run_child(workload, seed, tiny)
            refs.append(run_reference())
            rep["scale"] = REFERENCE_S / statistics.mean(refs[-2:])
            reps.append(rep)
            walls.append(time.monotonic() - rep_started)
        check_same(reps)
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(reps).items()}
        print(f"reference job: median {statistics.median(refs):.4f} s "
              f"min {min(refs):.4f} max {max(refs):.4f}")
        for name in ("setup_s unscaled", "run_s unscaled", "peak_rss_mb"):
            values = [rep[name.split()[0]] for rep in reps]
            print(f"{name}: median {statistics.median(values):.4f} "
                  f"min {min(values):.4f} max {max(values):.4f} "
                  f"over {len(reps)} repetitions")
    first = reps[0]
    print(f"{workload} seed {seed}: {first['events']} events, simulated "
          f"end {first['sim_end_s']:.1f} s, ops_attempted "
          f"{first['ops_attempted']}, ops_failed {first['ops_failed']}, "
          f"incomplete_frac "
          f"{first['ops_failed'] / first['ops_attempted']:.4f}")
    print(f"digest {first['digest']} ({baseline_note(first)})")
    return {"correct": True,
            "attempted": sum(rep["ops_attempted"] for rep in reps),
            "failed": sum(rep["ops_failed"] for rep in reps),
            "metrics": metrics}


def preflight() -> Optional[str]:
    """Why the benchmark cannot run here, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        return "no src/repro package next to the benchmark"
    # Import once so byte-compilation is not charged to the first
    # repetition's setup time.
    probe = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
         "import repro.experiments"], cwd=ROOT, timeout=120)
    if probe.returncode != 0:
        return "importing repro.experiments failed"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload; the last stdout line "
                    "is the JSON result.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run exits through subprocess.run, which kills the
    # repetition it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    problem = preflight()
    if problem is not None:
        print(f"swarmbench: {problem}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchFailure as exc:
        print(f"swarmbench: {exc}", file=sys.stderr)
        # No repetition's counts can be trusted: one failed attempt.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
