"""Per-layer metrics of one traced run, computed from its spans.

Times and counts are given **per timed operation** of the workload (one
verification, one query, one delta), taken over the spans under
``bench.op`` roots.  A layer that does not run inside the timed
operations of a workload (the control plane on ``query-clos``, the
partitioner on ``verify-dcn``) is given per set-up instead, over the
spans under ``bench.setup`` roots.  A layer that runs in neither reads
0.  Ratios are taken over every span of the run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

from tracing import (
    SpanIndex,
    barrier_wait,
    bgp_rounds,
    critical_path,
    duration,
    phase_kind,
)

# (name, unit): the per_layer metrics, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = [
    ("config.snapshot_s", "s"),
    ("serve.delta_apply_s", "s"),
    ("partition.s", "s"),
    ("sharding.s", "s"),
    ("fleet.start_s", "s"),
    ("cpo.bgp_s", "s"),
    ("cpo.rounds", "count"),
    ("cpo.exports_s", "s"),
    ("cpo.exchange_s", "s"),
    ("cpo.pull_s", "s"),
    ("cpo.flush_s", "s"),
    ("cpo.critical_s", "s"),
    ("cpo.barrier_wait_s", "s"),
    ("cpo.changed_node_ratio", "ratio"),
    ("cpo.idle_round_ratio", "ratio"),
    ("rpc.calls", "count"),
    ("rpc.bytes", "bytes"),
    ("rpc.retries", "count"),
    ("rpc.inflight_high_water", "count"),
    ("sidecar.packet_send_s", "s"),
    ("storage.flush_bytes", "bytes"),
    ("storage.collect_s", "s"),
    ("dpo.build_s", "s"),
    ("dpo.forward_s", "s"),
    ("dpo.supersteps", "count"),
    ("dpo.packets_crossed", "count"),
    ("bdd.peak_worker_nodes", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.gc_reclaimed_nodes", "count"),
    ("check.reach_s", "s"),
    ("check.waypoint_s", "s"),
    ("check.multipath_s", "s"),
    ("check.loop_s", "s"),
    ("serve.classify_s", "s"),
    ("serve.recompute_s", "s"),
    ("serve.rebuild_s", "s"),
    ("serve.commit_s", "s"),
    ("serve.read_ms", "ms"),
    ("serve.announce_reuse_ratio", "ratio"),
    ("serve.full_reuse_ratio", "ratio"),
    ("serve.announce_p50_s", "s"),
    ("serve.full_p50_s", "s"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_tail_ms", "ms"),
    ("gen.late_tail_ms", "ms"),
    ("wall.p50_ms", "ms"),
    ("wall.tail_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("telemetry.frames", "count"),
]

# Span name -> metric, for layers measured as time inside their spans.
SPAN_TIMES = {
    "config.snapshot": "config.snapshot_s",
    "serve.delta_apply": "serve.delta_apply_s",
    "partition": "partition.s",
    "sharding": "sharding.s",
    "cpo.shard": "cpo.bgp_s",
    "sidecar.send_packets": "sidecar.packet_send_s",
    "storage.collect": "storage.collect_s",
    "dpo.build": "dpo.build_s",
    "dpo.forward": "dpo.forward_s",
    "check.reach": "check.reach_s",
    "check.waypoint": "check.waypoint_s",
    "check.multipath": "check.multipath_s",
    "check.loop": "check.loop_s",
    "serve.classify": "serve.classify_s",
    "serve.commit": "serve.commit_s",
}

# Root counter -> metric (counts recorded by ``Recorder.root``).
ROOT_COUNTS = {
    "rpc.calls": "rpc.calls",
    "rpc.bytes": "rpc.bytes",
    "rpc.retries": "rpc.retries",
    "telemetry.frames": "telemetry.frames",
    "bdd.gc_reclaimed_nodes": "bdd.gc_reclaimed_nodes",
}


class _PhaseSums:
    """Per-metric sums split by the kind of root they fell under."""

    def __init__(self) -> None:
        self.sums: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def add(self, metric: str, root_kind: str, value: float) -> None:
        self.sums[metric][root_kind] += value

    def per_unit(self, metric: str, roots: Dict[str, int]) -> float:
        by_kind = self.sums.get(metric, {})
        for kind in ("op", "setup"):
            if by_kind.get(kind) and roots.get(kind):
                return by_kind[kind] / roots[kind]
        return 0.0


def layer_metrics(trace: Dict[str, Any]) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """The per-layer metrics plus the per-round critical-path table."""
    index = SpanIndex(trace["spans"])
    roots: Dict[str, int] = defaultdict(int)
    for span in index.spans:
        if span["parent"] is None and span["name"].startswith("bench."):
            roots[span["name"].split(".", 1)[1]] += 1

    def kind_of(span) -> str:
        # Work outside every root (serve's snapshot build before its
        # session exists) happened before the timed part: set-up.
        root = index.root_of(span)
        return root["name"].split(".", 1)[1] if root["name"].startswith("bench.") else "setup"

    sums = _PhaseSums()
    for span in index.spans:
        kind = kind_of(span)
        metric = SPAN_TIMES.get(span["name"])
        if metric is not None:
            sums.add(metric, kind, duration(span))
        elif span["name"] == "controller.init":
            # Fleet start: the construction minus partition and sharding.
            sums.add("fleet.start_s", kind, index.self_time(span))
        elif span["name"] == "runtime.map":
            phase = phase_kind(index, span)
            parent = index.by_id.get(span["parent"], {}).get("name")
            if phase == "flush_shard":
                sums.add("cpo.flush_s", kind, duration(span))
                for call in index.children[span["id"]]:
                    sums.add("storage.flush_bytes", kind, call["attrs"].get("bytes", 0))
            elif phase == "drain":
                sums.add("dpo.supersteps", kind, 1)
                for call in index.children[span["id"]]:
                    sums.add("dpo.packets_crossed", kind, call["attrs"].get("crossed", 0))
            elif parent == "cpo.shard" and phase == "compute_exports":
                sums.add("cpo.exports_s", kind, duration(span))
            elif parent == "cpo.shard" and phase == "pull_round":
                sums.add("cpo.pull_s", kind, duration(span))
        elif span["name"] in (
            "controller.run_control_plane",
            "controller.rebuild_data_plane",
        ) and kind == "op" and index.root_of(span)["attrs"].get("serve"):
            name = "serve.recompute_s" if "run_control" in span["name"] else "serve.rebuild_s"
            sums.add(name, kind, duration(span))
        elif span["name"] == "bench.op" or span["name"] == "bench.setup":
            for key, metric in ROOT_COUNTS.items():
                sums.add(metric, kind, span["attrs"].get("counts", {}).get(key, 0))

    rounds = bgp_rounds(index)
    round_kinds = [kind_of(index.by_id[r["root"]]) for r in rounds]
    for r, kind in zip(rounds, round_kinds):
        sums.add("cpo.rounds", kind, 1)
        sums.add("cpo.exchange_s", kind, r["exchange_s"])
        sums.add("cpo.critical_s", kind, critical_path([r]))
        sums.add("cpo.barrier_wait_s", kind, barrier_wait([r]))

    metrics: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for metric in sums.sums:
        metrics[metric] = sums.per_unit(metric, roots)
    pulled = sum(r["nodes"] for r in rounds)
    metrics["cpo.changed_node_ratio"] = (
        sum(r["changed"] for r in rounds) / pulled if pulled else 0.0
    )
    metrics["cpo.idle_round_ratio"] = (
        sum(1 for r in rounds if r["idle"]) / len(rounds) if rounds else 0.0
    )
    op_roots = [s for s in index.spans if s["name"] == "bench.op" and s["parent"] is None]
    metrics["rpc.inflight_high_water"] = max(
        (s["attrs"].get("counts", {}).get("rpc.inflight_high_water", 0) for s in op_roots),
        default=0,
    )
    hits = misses = 0.0
    for span in index.spans:
        if span["name"].startswith("bench.") and span["parent"] is None:
            counts = span["attrs"].get("counts", {})
            hits += counts.get("bdd.cache_hits", 0)
            misses += counts.get("bdd.cache_misses", 0)
    metrics["bdd.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["bdd.peak_worker_nodes"] = float(trace.get("peak_worker_nodes", 0))
    reads = index.named("serve.read")
    if reads:
        metrics["serve.read_ms"] = 1000.0 * sum(map(duration, reads)) / len(reads)
    return metrics, rounds
