"""Spans recorded from outside the program, and the arithmetic over them.

The benchmark never edits ``src/``.  :func:`install` replaces public
calls of each layer (plus the two serve-internal steps a delta is made
of) with wrappers that record one span per call into a
:class:`Recorder`.  Spans stay in memory until the run ends.

A span is a dict with ``id``, ``parent``, ``name``, ``run``, ``start``,
``end`` and ``attrs``.  Parents follow the calling thread, and a
``runtime.map`` phase re-parents the thunks it runs, so a worker call
executed on a pool thread is still the child of its phase.

The outermost spans are *roots*: ``bench.setup`` around each set-up and
``bench.op`` around each timed operation (a verification, a query, a
delta).  A root also records how much each program counter moved while
it was open (RPC calls and bytes, telemetry frames, BDD cache lookups).

Wrappers record only in the process that installed them: socket workers
are forked from the controller after installation, and their copies of
the wrapped ``Worker`` methods pass straight through.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Dict[str, Any]
Registry = Callable[[], Dict[str, Any]]

# Worker-side calls: the same names on in-process workers and on
# process/socket proxies, where one span is one RPC round trip.
WORKER_CALLS = (
    "compute_exports",
    "pull_round",
    "flush_shard",
    "build_dataplane",
    "drain",
)

CHECKS = {
    "check_reachability": "check.reach",
    "check_waypoint": "check.waypoint",
    "check_multipath_consistency": "check.multipath",
    "check_loop_free": "check.loop",
}


class Recorder:
    """In-memory span sink plus named counts, for one benchmark run."""

    def __init__(self, run_id: str = "run") -> None:
        self.run_id = run_id
        self.enabled = True
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.peak_worker_nodes = 0
        self.nodes_per_worker: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._engine_last: Dict[int, Dict[str, float]] = {}

    def active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.active():
            yield None
            return
        parent = getattr(self._local, "parent", None)
        record: Span = {
            "id": next(self._ids),
            "parent": parent,
            "name": name,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self._local.parent = record["id"]
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._local.parent = parent
            self.spans.append(record)

    @contextmanager
    def root(self, kind: str, registry: Optional[Registry] = None, **attrs):
        """A ``bench.<kind>`` span that also records counter movement."""
        before = self._probe(registry)
        with self.span(f"bench.{kind}", **attrs) as record:
            try:
                yield record
            finally:
                if record is not None:
                    after = self._probe(registry)
                    record["attrs"]["counts"] = {
                        key: after.get(key, 0) - before.get(key, 0)
                        for key in after
                        if key != "rpc.inflight_high_water"
                    }
                    record["attrs"]["counts"]["rpc.inflight_high_water"] = (
                        after.get("rpc.inflight_high_water", 0)
                    )

    def bind(self, thunk: Callable[[], Any], parent: int) -> Callable[[], Any]:
        """``thunk`` re-parented under span ``parent`` on any thread."""

        def run():
            saved = getattr(self._local, "parent", None)
            self._local.parent = parent
            try:
                return thunk()
            finally:
                self._local.parent = saved

        return run

    def engine_counters(self, per_worker: List[Dict[str, float]]) -> None:
        """Fold cumulative per-engine counters into run totals.

        Engines are rebuilt with every data-plane build, so a counter
        that went down means a fresh engine: count it from zero.
        """
        if not self.active():
            return
        with self._lock:
            for index, counters in enumerate(per_worker):
                if not counters:
                    continue
                last = self._engine_last.get(index, {})
                for key in ("cache_hits", "cache_misses", "gc_reclaimed_nodes"):
                    now = float(counters.get(key, 0))
                    before = last.get(key, 0.0)
                    self.counts[f"bdd.{key}"] += (
                        now - before if now >= before else now
                    )
                self._engine_last[index] = dict(counters)
                self.peak_worker_nodes = max(
                    self.peak_worker_nodes,
                    int(counters.get("peak_node_count", 0)),
                )

    def _probe(self, registry: Optional[Registry]) -> Dict[str, float]:
        with self._lock:
            values = dict(self.counts)
        if registry is not None:
            values.update(registry_counts(registry()))
        return values

    def export(self) -> Dict[str, Any]:
        return {
            "spans": [s for s in self.spans if s["end"] is not None],
            "peak_worker_nodes": self.peak_worker_nodes,
        }


def registry_counts(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """The program's own transport and telemetry counters, by our names."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    return {
        "rpc.calls": counters.get("transport.calls", 0),
        "rpc.bytes": counters.get("transport.bytes_sent", 0)
        + counters.get("transport.bytes_received", 0),
        "rpc.retries": counters.get("transport.retries", 0),
        "rpc.inflight_high_water": gauges.get("transport.inflight", {}).get(
            "high_water", 0
        ),
        "telemetry.frames": counters.get("telemetry.frames", 0),
    }


def _session_registry(session) -> Dict[str, Any]:
    """A serve session's registry; empty while it is still booting."""
    try:
        return session.metrics_snapshot()
    except AttributeError:
        return {}


# -- installation -----------------------------------------------------------


def _patch(owner: Any, attr: str, replacement: Any) -> None:
    """Replace ``owner.attr``.  On a class the attribute must be defined by
    the class itself, so a method that moved or was renamed fails here
    rather than going unmeasured."""
    if isinstance(owner, type) and attr not in owner.__dict__:
        raise AttributeError(f"{owner.__name__} defines no {attr!r}")
    getattr(owner, attr)
    setattr(owner, attr, replacement)


def _traced(
    rec: Recorder,
    fn: Callable,
    name: str,
    attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    after: Optional[Callable[[Span, Any, tuple], None]] = None,
) -> Callable:
    def wrapper(*args, **kwargs):
        if not rec.active():
            return fn(*args, **kwargs)
        extra = attrs(*args) if attrs is not None else {}
        with rec.span(name, **extra) as span:
            result = fn(*args, **kwargs)
            if after is not None and span is not None:
                after(span, result, args)
            return result

    wrapper.__wrapped__ = fn
    return wrapper


def _worker_attrs(self, *_args) -> Dict[str, Any]:
    return {"worker": self.worker_id}


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark measures, for this process."""
    from repro.dataplane.queries import PropertyChecker
    from repro.dist import controller as controller_mod
    from repro.dist import process_runtime, runtime, worker
    from repro.dist.cpo import ControlPlaneOrchestrator
    from repro.dist.dpo import DataPlaneOrchestrator
    from repro.dist.sidecar import Sidecar
    from repro.net import dcn, fattree, folded_clos
    from repro.serve import deltas, session

    def method(cls, attr, name, attrs=None, after=None):
        _patch(cls, attr, _traced(rec, getattr(cls, attr), name, attrs, after))

    def root_method(cls, attr, kind):
        fn = getattr(cls, attr)

        def wrapper(self, *args, **kwargs):
            if not rec.active():
                return fn(self, *args, **kwargs)
            with rec.root(kind, lambda: _session_registry(self), serve=True):
                return fn(self, *args, **kwargs)

        wrapper.__wrapped__ = fn
        _patch(cls, attr, wrapper)

    # config: snapshot derivation.
    for module, attr in (
        (dcn, "build_dcn"),
        (fattree, "build_fattree"),
        (folded_clos, "build_folded_clos"),
    ):
        _patch(module, attr, _traced(rec, getattr(module, attr), "config.snapshot"))

    # partition / sharding, where the controller and serve look them up.
    def after_partition(_span, result, _args):
        rec.nodes_per_worker = Counter(result.assignment.values())

    _patch(
        controller_mod,
        "partition",
        _traced(rec, controller_mod.partition, "partition", after=after_partition),
    )
    traced_shards = _traced(rec, controller_mod.make_shards, "sharding")
    _patch(controller_mod, "make_shards", traced_shards)
    _patch(session, "make_shards", traced_shards)

    # controller: fleet start-up and the results it hands out.
    Controller = controller_mod.S2Controller
    method(Controller, "__init__", "controller.init")
    method(Controller, "collected_ribs", "storage.collect")
    method(Controller, "run_control_plane", "controller.run_control_plane")
    method(Controller, "rebuild_data_plane", "controller.rebuild_data_plane")

    # runtime phases: one span per map, its thunks re-parented under it.
    for cls in (runtime.SequentialRuntime, runtime.ThreadedRuntime):
        original = cls.map

        def traced_map(self, thunks, _original=original):
            with rec.span("runtime.map") as span:
                if span is None:
                    return _original(self, thunks)
                return _original(self, [rec.bind(t, span["id"]) for t in thunks])

        _patch(cls, "map", traced_map)

    # worker calls, in-process and over RPC.
    def after_pull(span, outcome, args):
        span["attrs"]["changed"] = len(outcome.changed_nodes)
        span["attrs"]["any_changed"] = bool(outcome.changed)
        span["attrs"]["nodes"] = rec.nodes_per_worker.get(args[0].worker_id, 0)

    def after_flush(span, result, _args):
        span["attrs"]["bytes"] = result[0]

    def after_drain(span, result, _args):
        span["attrs"]["crossed"] = sum(
            len(batch.envelopes) for batch in result[1].values()
        )

    hooks = {"pull_round": after_pull, "flush_shard": after_flush, "drain": after_drain}
    for cls in (worker.Worker, process_runtime.WorkerProcessProxy):
        for attr in WORKER_CALLS:
            method(cls, attr, f"worker.{attr}", _worker_attrs, hooks.get(attr))

    # sidecars.
    method(Sidecar, "queue_routes", "sidecar.queue_routes", _worker_attrs)
    method(Sidecar, "flush_routes", "sidecar.flush_routes", _worker_attrs)
    method(Sidecar, "send_packets", "sidecar.send_packets", _worker_attrs)

    # orchestrators and the property checker.
    method(ControlPlaneOrchestrator, "run_bgp_shard", "cpo.shard")
    method(DataPlaneOrchestrator, "build", "dpo.build")
    method(DataPlaneOrchestrator, "forward", "dpo.forward")
    engine_counters = DataPlaneOrchestrator.worker_engine_counters

    def traced_engine_counters(self):
        result = engine_counters(self)
        rec.engine_counters(result)
        return result

    _patch(DataPlaneOrchestrator, "worker_engine_counters", traced_engine_counters)
    for attr, name in CHECKS.items():
        method(PropertyChecker, attr, name)

    # serve: classification and snapshot re-derivation, plus the
    # session-internal steps that have no public entry point: boot and
    # a whole delta (the roots there) and the commit of its epoch.
    _patch(session, "classify", _traced(rec, session.classify, "serve.classify"))
    method(deltas.ConfigTextDelta, "apply", "serve.delta_apply")
    method(deltas.LinkDelta, "apply", "serve.delta_apply")
    Session = session.VerifierSession
    root_method(Session, "__init__", "setup")
    root_method(Session, "_apply", "op")
    method(Session, "_commit_view", "serve.commit")
    method(Session, "query", "serve.read")


# -- arithmetic -------------------------------------------------------------


def duration(span: Span) -> float:
    return span["end"] - span["start"]


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class SpanIndex:
    """Parent/child lookups and self time over one run's spans."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = sorted(spans, key=lambda s: s["start"])
        self.by_id = {s["id"]: s for s in self.spans}
        self.children: Dict[Optional[int], List[Span]] = defaultdict(list)
        for span in self.spans:
            self.children[span["parent"]].append(span)

    def self_time(self, span: Span) -> float:
        kids = [(c["start"], c["end"]) for c in self.children[span["id"]]]
        return duration(span) - covered(kids, span["start"], span["end"])

    def root_of(self, span: Span) -> Span:
        while span["parent"] in self.by_id:
            span = self.by_id[span["parent"]]
        return span

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s["name"] == name]


def phase_kind(index: SpanIndex, phase: Span) -> Optional[str]:
    """The worker call a ``runtime.map`` phase ran (None if mixed/empty)."""
    names = {c["name"] for c in index.children[phase["id"]]}
    if len(names) == 1:
        return names.pop().split(".", 1)[1]
    return None


def phase_barrier(index: SpanIndex, phase: Span) -> Dict[str, Any]:
    """Slowest worker of one phase and every worker's wait at its barrier."""
    calls = index.children[phase["id"]]
    wall = duration(phase)
    slowest = max(calls, key=duration) if calls else None
    return {
        "wall": wall,
        "slowest": slowest["attrs"].get("worker") if slowest else None,
        "slowest_s": duration(slowest) if slowest else 0.0,
        "waits": {c["attrs"].get("worker"): wall - duration(c) for c in calls},
    }


def bgp_rounds(index: SpanIndex) -> List[Dict[str, Any]]:
    """Every BGP round: its export and pull phases, paired in order."""
    rounds = []
    for number_of_shard, shard_span in enumerate(index.named("cpo.shard")):
        pending = None
        number = 0
        for phase in index.children[shard_span["id"]]:
            if phase["name"] != "runtime.map":
                continue
            kind = phase_kind(index, phase)
            if kind == "compute_exports":
                pending = phase
            elif kind == "pull_round" and pending is not None:
                pulls = index.children[phase["id"]]
                rounds.append(
                    {
                        "root": index.root_of(shard_span)["id"],
                        "shard": number_of_shard,
                        "round": number,
                        "exports": phase_barrier(index, pending),
                        "pull": phase_barrier(index, phase),
                        "exchange_s": phase["start"] - pending["end"],
                        "changed": sum(c["attrs"].get("changed", 0) for c in pulls),
                        "nodes": sum(c["attrs"].get("nodes", 0) for c in pulls),
                        "idle": not any(c["attrs"].get("any_changed") for c in pulls),
                    }
                )
                number += 1
                pending = None
    return rounds


def critical_path(rounds: List[Dict[str, Any]]) -> float:
    """Sum over rounds of the slowest worker's exports plus its pull."""
    return sum(r["exports"]["slowest_s"] + r["pull"]["slowest_s"] for r in rounds)


def barrier_wait(rounds: List[Dict[str, Any]]) -> float:
    """Sum over round phases of phase wall minus each worker's own call."""
    return sum(
        sum(r[phase]["waits"].values()) for r in rounds for phase in ("exports", "pull")
    )
