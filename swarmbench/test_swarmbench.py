"""Self-tests of the benchmark's own arithmetic, names and paths.

Run from the repository root::

    python3 -m pytest swarmbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import (LAYER_COUNTS, LAYER_SPANS, Tracer, load_spans,  # noqa: E402
                    self_times, summarize, union_length)
from workloads import WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


# ----------------------------------------------------------------------
# Self time = span minus the union of its child spans
# ----------------------------------------------------------------------
def test_self_time_nested():
    # 0: [0, 10] > 1: [1, 6] > 2: [2, 3]; 0 > 3: [7, 9]
    start, end, parent = [0, 1, 2, 7], [10, 6, 3, 9], [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3, 4, 1, 2]


def test_self_time_overlapping_siblings_count_once():
    # Children [1, 5] and [3, 8] overlap on [3, 5]: union is 7, not 9.
    start, end, parent = [0, 1, 3], [10, 5, 8], [-1, 0, 0]
    assert self_times(start, end, parent) == [3, 4, 5]


def test_self_time_clips_children_to_parent():
    start, end, parent = [2, 0, 5], [6, 3, 9], [-1, 0, 0]
    assert self_times(start, end, parent)[0] == 2


def test_self_time_zero_length_spans():
    start, end, parent = [0, 4, 4, 5], [10, 4, 4, 5], [-1, 0, 0, 0]
    assert self_times(start, end, parent) == [10, 0, 0, 0]
    assert union_length([(4, 4), (5, 5)]) == 0


def test_union_length_disjoint_and_contained():
    assert union_length([(0, 2), (5, 6), (1, 3), (5.5, 5.75)]) == 4
    assert union_length([(0, 10), (2, 3)], lo=1, hi=4) == 3
    assert union_length([]) == 0


def _ticking_clock(times):
    feed = iter(times)
    return lambda: next(feed)


def test_tracer_spans_share_event_and_summarize():
    tracer = Tracer(clock=_ticking_clock([0, 1, 2, 3, 4, 8, 9, 10]))

    def leaf():
        return None

    outer = tracer.span_wrapper(lambda: (inner(), inner()), "outer")
    inner = tracer.span_wrapper(leaf, "inner", outcome="not_none")
    tracer.event_seq = 42
    outer()  # outer [0, 8] holds inner [1, 2] and inner [3, 4]
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.event) == [42, 42, 42]
    table = summarize(tracer)
    assert table["outer"] == {"calls": 1, "s": 8, "self_s": 6}
    assert table["inner"] == {"calls": 2, "s": 2, "self_s": 2}
    assert tracer.counts["inner.ok"] == 0


def test_inclusive_time_counts_recursion_once():
    times = iter(range(100))
    tracer = Tracer(clock=lambda: next(times))

    def recurse(depth):
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.span_wrapper(recurse, "rec")
    wrapped(2)  # spans [0, 5], [1, 4], [2, 3]
    row = summarize(tracer)["rec"]
    assert (row["calls"], row["s"], row["self_s"]) == (3, 5, 5)


def test_spans_round_trip(tmp_path):
    tracer = Tracer(clock=_ticking_clock([0.5, 1.25]))
    tracer.span_wrapper(lambda: 1, "f")()
    path = str(tmp_path / "spans.bin")
    tracer.write(path)
    spans = load_spans(path)
    assert spans["names"] == ["f"]
    assert list(spans["start"]) == [0.5] and list(spans["end"]) == [1.25]
    assert list(spans["parent"]) == [-1] and list(spans["event"]) == [-1]


def test_install_then_uninstall_restores_every_attribute():
    from tracer import _resolve
    targets = [(path, attr) for path, attr, *_ in LAYER_SPANS + LAYER_COUNTS]
    before = {(p, a): _resolve(p).__dict__[a] for p, a in targets}
    tracer = Tracer()
    tracer.install()
    assert any(_resolve(p).__dict__[a] is not before[(p, a)]
               for p, a in targets)
    tracer.uninstall()
    for (path, attr), original in before.items():
        assert _resolve(path).__dict__[attr] is original
    import repro.bt.protocols.tchain as tchain
    import repro.core.policy as policy
    assert tchain.select_payee is policy.select_payee


def test_event_floor_drops_its_spans_and_counts():
    tracer = Tracer()
    tracer.install()
    try:
        counts, spans = dict(tracer.counts), len(tracer.start)
        assert tracer.event_floor(events=500) > 0
        assert tracer.counts == counts and len(tracer.start) == spans
        assert len(tracer.stack) == 1
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# Names and BENCHMARK.json
# ----------------------------------------------------------------------
def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        return json.load(src)


def test_metric_names_are_well_formed():
    names = [name for name, _, _ in PER_LAYER] + list(run.END_TO_END)
    assert len(names) == len(set(names))
    for name in names + list(WORKLOADS):
        assert NAME_RE.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    for workload in spec["workloads"]:
        assert workload["name"] in WORKLOADS


def test_end_to_end_scales_each_repetition_by_host_speed():
    reps = [{"setup_s": 0.2, "run_s": 4.0, "scale": 1.0, "downloads": 8,
             "peak_rss_mb": 30.0, "ops_attempted": 10},
            {"setup_s": 0.3, "run_s": 6.0, "scale": 0.5, "downloads": 8,
             "peak_rss_mb": 32.0, "ops_attempted": 10},
            {"setup_s": 0.1, "run_s": 2.0, "scale": 2.0, "downloads": 8,
             "peak_rss_mb": 31.0, "ops_attempted": 10}]
    # scaled: setup 0.2, 0.15, 0.2; run 4, 3, 4; downloads/s 2, 8/3, 2
    assert run.end_to_end(reps) == pytest.approx({
        "setup_s": 0.2, "run_s": 4.0, "downloads_per_s": 2.0,
        "peak_rss_mb": 31.0, "complete_frac": 0.8})


def test_failed_check_raises():
    records = [SimpleNamespace(peer_id="L1", kind="leecher", completed=True,
                               pieces_completed=3)]
    metrics = SimpleNamespace(compliant_leechers=lambda: records)
    result = SimpleNamespace(config=SimpleNamespace(n_pieces=4),
                             metrics=metrics, n_compliant=1)
    with pytest.raises(child.CheckFailed):
        child.check_outputs(result)
    records[0].pieces_completed = 4
    assert child.check_outputs(result) == {
        "ops_attempted": 1, "ops_failed": 0, "downloads": 1}


# ----------------------------------------------------------------------
# Smoke: every workload, tiny size, untraced and traced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_untraced_and_traced(workload, tmp_path):
    plain = run.measure(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert plain["correct"] and plain["attempted"] >= 1
    assert set(plain["metrics"]) == set(run.END_TO_END)
    traced = run.measure(workload, seed=3, seconds=0, trace=True, tiny=True,
                         out_dir=str(tmp_path))
    assert set(traced["metrics"]) == {name for name, _, _ in PER_LAYER}
    assert traced["metrics"]["sim.events"]["value"] > 0
    spans = load_spans(str(tmp_path / f"spans-{workload}-s3.bin"))
    assert len(spans["start"]) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "swarmbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "swarmbench/run.py", "--workload", "flash_crowd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
