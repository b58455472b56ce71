"""Self time, critical path and per-layer normalisation on synthetic spans.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import pytest  # noqa: E402

from layers import layer_metrics  # noqa: E402
from stats import summarize, tail_percentile  # noqa: E402
from tracing import (  # noqa: E402
    Recorder,
    SpanIndex,
    barrier_wait,
    bgp_rounds,
    covered,
    critical_path,
)


class Spans:
    """Builds spans by hand: ``add(name, start, end, parent, **attrs)``."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=None, **attrs):
        span = {
            "id": len(self.spans) + 1,
            "parent": parent["id"] if parent else None,
            "name": name,
            "run": "test",
            "start": start,
            "end": end,
            "attrs": attrs,
        }
        self.spans.append(span)
        return span


def test_covered_merges_overlaps_and_clips():
    intervals = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (-1.0, 0.5)]
    # Union inside [0, 6.5]: [0, 0.5] + [1, 4] + [6, 6.5].
    assert covered(intervals, 0.0, 6.5) == pytest.approx(4.0)


def test_self_time_subtracts_overlapping_children_once():
    s = Spans()
    phase = s.add("runtime.map", 0.0, 10.0)
    # Two workers on threads: overlapping children cover [1, 8].
    s.add("worker.pull_round", 1.0, 7.0, phase, worker=0)
    s.add("worker.pull_round", 2.0, 8.0, phase, worker=1)
    index = SpanIndex(s.spans)
    assert index.self_time(phase) == pytest.approx(3.0)


def _round(s, shard, start, exports, pulls, changed=(0, 0), nodes=(5, 5)):
    """One round: an exports phase, a 0.5 s exchange gap, a pull phase."""
    ex_end = start + max(exports) + 0.1
    ex = s.add("runtime.map", start, ex_end, shard)
    for worker, took in enumerate(exports):
        s.add("worker.compute_exports", start, start + took, ex, worker=worker)
    pull_start = ex_end + 0.5
    pull_end = pull_start + max(pulls) + 0.1
    pull = s.add("runtime.map", pull_start, pull_end, shard)
    for worker, took in enumerate(pulls):
        s.add(
            "worker.pull_round", pull_start, pull_start + took, pull,
            worker=worker, changed=changed[worker], nodes=nodes[worker],
            any_changed=changed[worker] > 0,
        )
    return pull_end


def test_critical_path_and_barrier_wait_per_round():
    s = Spans()
    root = s.add("bench.op", 0.0, 100.0)
    shard = s.add("cpo.shard", 0.0, 50.0, root)
    end = _round(s, shard, 0.0, exports=(2.0, 1.0), pulls=(1.0, 3.0), changed=(2, 1))
    _round(s, shard, end, exports=(1.0, 1.5), pulls=(0.5, 0.5))
    rounds = bgp_rounds(SpanIndex(s.spans))
    assert [r["round"] for r in rounds] == [0, 1]
    assert rounds[0]["exports"]["slowest"] == 0
    assert rounds[0]["pull"]["slowest"] == 1
    assert rounds[0]["exchange_s"] == pytest.approx(0.5)
    # Slowest worker of each phase: (2 + 3) + (1.5 + 0.5).
    assert critical_path(rounds) == pytest.approx(7.0)
    # Phase wall is the slowest call + 0.1; the others wait the gap.
    waits = [
        (2.1 - 2.0) + (2.1 - 1.0), (3.1 - 1.0) + (3.1 - 3.0),
        (1.6 - 1.0) + (1.6 - 1.5), (0.6 - 0.5) * 2,
    ]
    assert barrier_wait(rounds) == pytest.approx(sum(waits))
    assert not rounds[0]["idle"] and rounds[1]["idle"]


def test_layer_metrics_are_per_operation_else_per_setup():
    s = Spans()
    for start in (0.0, 10.0):
        setup = s.add("bench.setup", start, start + 2.0)
        s.add("partition", start, start + 0.5, setup)
    for start in (20.0, 30.0, 40.0):
        op = s.add("bench.op", start, start + 5.0, counts={"rpc.calls": 10})
        s.add("dpo.forward", start, start + 3.0, op)
        shard = s.add("cpo.shard", start, start + 2.0, op)
        _round(s, shard, start, exports=(0.5, 0.25), pulls=(0.25, 0.5), changed=(1, 0))
    metrics, rounds = layer_metrics({"spans": s.spans, "peak_worker_nodes": 7})
    assert metrics["dpo.forward_s"] == pytest.approx(3.0)      # per op
    assert metrics["partition.s"] == pytest.approx(0.5)        # per set-up
    assert metrics["rpc.calls"] == pytest.approx(10.0)
    assert metrics["cpo.rounds"] == pytest.approx(1.0)
    assert metrics["cpo.changed_node_ratio"] == pytest.approx(3 / 30)
    assert metrics["bdd.peak_worker_nodes"] == 7
    assert metrics["serve.commit_s"] == 0.0                    # never ran
    assert len(rounds) == 3


def test_recorder_nests_and_rebinds_across_threads():
    import threading

    rec = Recorder()
    with rec.span("outer") as outer:
        with rec.span("inner"):
            pass

        def on_thread():
            with rec.span("on-thread"):
                pass

        thread = threading.Thread(target=rec.bind(on_thread, outer["id"]))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["inner"]["parent"] == outer["id"]
    assert by_name["on-thread"]["parent"] == outer["id"]
    assert by_name["outer"]["parent"] is None
    rec.enabled = False
    with rec.span("ignored") as nothing:
        assert nothing is None


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10) == 0.0
    assert tail_percentile(1000) == pytest.approx(99.0)
    assert tail_percentile(20) == pytest.approx(50.0)
    summary = summarize([float(v) for v in range(1, 101)])
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["tail_pct"] == pytest.approx(90.0)
    assert summary["tail"] == pytest.approx(90.0)
    assert "tail" not in summarize([1.0, 2.0, 3.0])


def test_speed_factor_is_median_probe_over_reference():
    import speed

    probe = speed.SpeedProbe()
    probe.samples = [speed.REFERENCE_S * f for f in (1.0, 2.0, 1.5)]
    assert probe.factor() == pytest.approx(1.5)
