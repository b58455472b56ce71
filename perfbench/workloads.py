"""The in-process workloads: ``verify-dcn`` and ``query-clos``.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome`: set-up times, the latency of every timed operation,
and every failure, each with its reason.  Verdicts are checked against
references that do not share the timed path.
"""

from __future__ import annotations

import os
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from speed import SpeedProbe
from tracing import Recorder

# verify-dcn: the real-DCN analogue on the socket runtime.
DCN_SCALE = 2
DCN_PAIRS = 1296      # 36 prefix holders, all pairs reachable
DCN_ROUTES = 15071

# query-clos: the symbolic-forwarding workload.
CLOS_SHAPE = dict(dcs=2, pods=4, leaves=4, spines=4)
QUERY_KINDS = ("reach", "waypoint", "multipath", "loop")

WORKERS = 2
SHARDS = 8
SETUPS = 3  # set-ups per run; setup_s is their median

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def tree_cpu_s(root: int, include_root: bool = True) -> float:
    """User+system CPU seconds of ``root``'s live descendants (and of
    ``root`` itself), from ``/proc``.  Stolen time is not in these."""
    table: Dict[int, Tuple[int, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                data = stat.read()
        except OSError:
            continue  # exited while we looked
        fields = data[data.rindex(b")") + 2 :].split()
        table[int(entry)] = (int(fields[1]), int(fields[11]) + int(fields[12]))
    children: Dict[int, List[int]] = defaultdict(list)
    for pid, (ppid, _ticks) in table.items():
        children[ppid].append(pid)
    ticks = table[root][1] if include_root and root in table else 0
    stack = list(children[root])
    while stack:
        pid = stack.pop()
        ticks += table[pid][1]
        stack.extend(children[pid])
    return ticks / CLOCK_TICKS


def own_cpu_s() -> float:
    """CPU seconds of this process (fine-grained) and its children."""
    return time.process_time() + tree_cpu_s(os.getpid(), include_root=False)


class Stopwatch:
    """Wall and CPU seconds of a ``with`` block."""

    def __init__(self, cpu_s: Callable[[], float] = own_cpu_s) -> None:
        self._cpu_s = cpu_s
        self.wall = self.cpu = 0.0

    def __enter__(self) -> "Stopwatch":
        self._cpu = self._cpu_s()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.wall = time.perf_counter() - self._wall
        self.cpu = self._cpu_s() - self._cpu


@dataclass
class Run:
    """One benchmark run's settings."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    recorder: Recorder
    trace_period: int = 1  # set-ups are always traced
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    def deadline(self) -> float:
        return time.perf_counter() + self.seconds

    def traced(self, index: int) -> bool:
        """In a traced run, every other group of ``trace_period``
        operations is traced; the rest give the tracing overhead."""
        return self.trace and (index // self.trace_period) % 2 == 0

    def set_traced(self, index: int) -> None:
        self.recorder.enabled = self.traced(index)

    def trace_setups(self) -> None:
        self.recorder.enabled = self.trace


@dataclass
class Outcome:
    setup_cpu_s: List[float] = field(default_factory=list)
    setup_wall_s: List[float] = field(default_factory=list)
    setup_factor: List[float] = field(default_factory=list)
    op_ms: List[float] = field(default_factory=list)
    op_cpu_ms: List[float] = field(default_factory=list)
    traced_ms: List[float] = field(default_factory=list)
    untraced_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None
    stamp: Dict[str, Any] = field(default_factory=dict)
    other_ops: int = 0  # attempted operations that are not timed ops
    in_process: bool = True  # the system under test runs in this process
    # Divide operation CPU by the host speed factor (set-ups always are).
    normalise_ops: bool = True

    @property
    def attempted(self) -> int:
        return len(self.op_ms) + self.other_ops

    def set_up(self, run: Run, wall_s: float, cpu_s: float) -> None:
        """Record one set-up, with the host speed probed on either side of
        it: a set-up is a few seconds long, as are the host's speed swings."""
        self.setup_wall_s.append(wall_s)
        self.setup_cpu_s.append(cpu_s)
        self.setup_factor.append(run.probe.around_last())

    def timed(self, run: Run, index: int, watch: Stopwatch) -> None:
        millis = 1000.0 * watch.wall
        self.op_ms.append(millis)
        self.op_cpu_ms.append(1000.0 * watch.cpu)
        if run.trace:
            (self.traced_ms if run.traced(index) else self.untraced_ms).append(millis)
        run.probe.maybe_sample()


def _registry(holder: Dict[str, Any]):
    def snapshot():
        controller = holder.get("controller")
        return controller.metrics.snapshot() if controller is not None else {}

    return snapshot


# -- verify-dcn -------------------------------------------------------------


def verify_dcn(run: Run) -> Outcome:
    """Closed loop of cold verifications, each on a fresh controller."""
    from repro.core.s2 import S2Verifier
    from repro.dist.controller import S2Options
    from repro.net import dcn

    options = S2Options(num_workers=WORKERS, num_shards=SHARDS, runtime="socket")
    # A verification (~11 s) outlasts the host's speed swings and the probe
    # only runs between verifications, so its few samples do not describe
    # the speed a verification saw: over three ten-seed sets the divided
    # CPU spread up to 0.29, the raw one at most 0.12.
    out = Outcome(stamp={"runtime": "socket", "workers": WORKERS, "shards": SHARDS,
                         "bdd_kernel": options.bdd_kernel}, normalise_ops=False)
    rec = run.recorder
    deadline = run.deadline()
    index = 0
    while True:
        holder: Dict[str, Any] = {}
        run.trace_setups()
        with rec.root("setup", _registry(holder)), Stopwatch() as watch:
            verifier = S2Verifier(dcn.build_dcn(scale=DCN_SCALE), options)
            holder["controller"] = verifier.controller
        out.set_up(run, watch.wall, watch.cpu)
        try:
            run.set_traced(index)
            with rec.root("op", _registry(holder)), Stopwatch() as watch:
                result = verifier.verify()
        finally:
            verifier.close()
        out.timed(run, index, watch)
        if not result.ok:
            out.failures.append(f"verification {index}: {result.status} ({result.error})")
        elif (result.reachable_pairs, result.checked_pairs, result.total_routes) != (
            DCN_PAIRS, DCN_PAIRS, DCN_ROUTES
        ):
            out.failures.append(
                f"verification {index}: {result.reachable_pairs}/{result.checked_pairs}"
                f" pairs, {result.total_routes} routes; want {DCN_PAIRS}/{DCN_PAIRS},"
                f" {DCN_ROUTES}"
            )
        index += 1
        if run.smoke or time.perf_counter() >= deadline:
            break
    # Set-up is short here: repeat it alone until there are enough samples.
    while len(out.setup_cpu_s) < 2 * SETUPS - 1:
        run.trace_setups()
        with rec.root("setup"), Stopwatch() as watch:
            verifier = S2Verifier(dcn.build_dcn(scale=DCN_SCALE), options)
        out.set_up(run, watch.wall, watch.cpu)
        verifier.close()
    out.samples["verify_ms"] = list(out.op_ms)
    return out


# -- query-clos -------------------------------------------------------------


@dataclass(frozen=True)
class ClosQuery:
    kind: str
    source: str
    destination: Optional[str]
    transit: Optional[str]
    prefix: Any


def _clos_queries(snapshot, seed: int):
    """An endless seeded stream, cycling through the four query kinds."""
    rng = random.Random(seed)
    owned: Dict[str, List[Any]] = {
        host: list(config.bgp.networks)
        for host, config in sorted(snapshot.configs.items())
        if config.bgp is not None and config.bgp.networks
    }
    holders = sorted(owned)
    nodes = sorted(snapshot.configs)
    prefixes = sorted({p for nets in owned.values() for p in nets})
    while True:
        for kind in QUERY_KINDS:
            source, destination = rng.sample(holders, 2)
            if kind == "reach":
                # Half the time a prefix the destination does not own,
                # so both verdicts occur.
                pool = owned[destination] if rng.random() < 0.5 else prefixes
                yield ClosQuery(kind, source, destination, None, rng.choice(pool))
            elif kind == "waypoint":
                transit = rng.choice([n for n in nodes if n not in (source, destination)])
                yield ClosQuery(
                    kind, source, destination, transit, rng.choice(owned[destination])
                )
            else:
                yield ClosQuery(kind, source, None, None, rng.choice(prefixes))


def _ask(checker, query: ClosQuery) -> bool:
    """The checker's verdict: reachable, or a violation was found."""
    from repro.dataplane.queries import Query

    if query.kind == "reach":
        result = checker.check_reachability(
            Query.single_pair(query.source, query.destination, query.prefix)
        )
        return result.holds(query.source, query.destination)
    if query.kind == "waypoint":
        violations = checker.check_waypoint(
            Query(
                sources=(query.source,),
                destinations=(query.destination,),
                transits=(query.transit,),
                header_space=query.prefix,
            )
        )
        return bool(violations[query.transit])
    single = Query(sources=(query.source,), header_space=query.prefix)
    if query.kind == "multipath":
        return bool(checker.check_multipath_consistency(single))
    return bool(checker.check_loop_free(single))


def _expected(network, query: ClosQuery, rng: random.Random) -> bool:
    """The same verdict from one concrete packet walked through the FIBs."""
    from repro.groundtruth.walker import LOOP, ConcretePacket

    span = 1 << (32 - query.prefix.length)
    packet = ConcretePacket(
        dst=query.prefix.network + rng.randrange(span), src=rng.getrandbits(32)
    )
    track = (query.transit,) if query.transit else ()
    walk = network.walk(packet, query.source, track)
    if query.kind == "reach":
        return query.destination in walk.arrived_at()
    if query.kind == "waypoint":
        return any(
            query.transit not in outcome.path
            for outcome in walk.arrivals_at(query.destination)
        )
    if query.kind == "multipath":
        return len(walk.states()) > 1
    return LOOP in walk.states()


def query_clos(run: Run) -> Outcome:
    """Closed loop of seeded single-source property queries.

    Each set-up is followed by its share of the timed queries, so one
    run's samples span more of the host's speed swings (seconds long on a
    shared host) than a single block after the last set-up would.
    """
    from repro.bdd.headerspace import HeaderEncoding
    from repro.dataplane.verifier import verifier_from_ribs
    from repro.dist.controller import S2Controller, S2Options
    from repro.groundtruth.walker import GroundTruthNetwork
    from repro.net import folded_clos

    encoding = HeaderEncoding(fields=("dst", "src"), metadata_bits=2)
    options = S2Options(
        num_workers=WORKERS, num_shards=SHARDS, runtime="sequential", encoding=encoding
    )
    out = Outcome(stamp={"runtime": "sequential", "workers": WORKERS, "shards": SHARDS,
                         "bdd_kernel": options.bdd_kernel})
    rec = run.recorder
    # Whole cycles of the four kinds, so each kind is traced and untraced.
    run.trace_period = len(QUERY_KINDS)
    segments = 1 if run.smoke else SETUPS
    by_kind: Dict[str, List[float]] = {kind: [] for kind in QUERY_KINDS}
    reference_rng = random.Random(run.seed)
    stream = None
    positive = 0
    index = 0
    for _segment in range(segments):
        holder: Dict[str, Any] = {}
        run.trace_setups()
        with rec.root("setup", _registry(holder)), Stopwatch(time.process_time) as watch:
            snapshot = folded_clos.build_folded_clos(**CLOS_SHAPE)
            controller = S2Controller(snapshot, options)
            holder["controller"] = controller
            controller.run_control_plane()
            checker = controller.checker()
        out.set_up(run, watch.wall, watch.cpu)
        if stream is None:
            stream = _clos_queries(snapshot, run.seed)
        answered: List[Tuple[int, ClosQuery, bool]] = []
        try:
            deadline = time.perf_counter() + run.seconds / segments
            while True:
                query = next(stream)
                run.set_traced(index)
                with rec.root("op", _registry(holder)), Stopwatch(time.process_time) as watch:
                    try:
                        verdict = _ask(checker, query)
                    except Exception as exc:  # noqa: BLE001 — counted, run goes on
                        verdict = None
                        out.failures.append(f"query {index} {query.kind}: {exc!r}")
                out.timed(run, index, watch)
                by_kind[query.kind].append(1000.0 * watch.wall)
                if verdict is not None:
                    answered.append((index, query, verdict))
                index += 1
                if index >= len(QUERY_KINDS) if run.smoke else time.perf_counter() >= deadline:
                    break
            rec.enabled = False
            ribs = controller.collected_ribs()
        finally:
            controller.close()
        # Reference: concrete packets through FIBs rebuilt from the RIBs.
        network = GroundTruthNetwork(
            snapshot,
            verifier_from_ribs(snapshot, ribs).fibs,
            modeled_fields=encoding.fields,
            max_hops=options.max_hops,
        )
        for number, query, verdict in answered:
            positive += verdict
            if verdict != _expected(network, query, reference_rng):
                out.failures.append(
                    f"query {number} {query.kind} {query.source}->{query.destination}"
                    f" via {query.transit} {query.prefix}: verdict {verdict}"
                )
        # Free this segment before the next set-up, so peak RSS stays the
        # system's own and not the system's plus the reference's.
        del controller, checker, holder, ribs, network
    out.samples.update({f"{kind}_ms": values for kind, values in by_kind.items()})
    out.extra["positive_verdicts"] = positive
    return out
