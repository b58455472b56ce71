"""Socket-backed workers: the paper's deployment shape over real TCP.

Every remote worker sits behind a TCP server speaking the hardened
framed RPC protocol of :mod:`repro.dist.transport`, so the controller
and workers can live on different machines — S2's actual deployment
(§5: one controller plus workers on separate servers).  Localhost is the
default; pointing ``worker_hosts`` at remote ``host:port`` listeners
(each started with ``repro worker --listen``) is a config change, not a
code change.  The controller reaches each worker through a
:class:`~repro.dist.process_runtime.WorkerProcessProxy`, whose
supervision stack (fault preamble, retry loop, relayed exceptions) is
what :class:`WorkerSupervisor` recovery builds on.

Two spawn modes:

* **managed** (default): the pool forks one server process per worker on
  this machine — all processes before any channel thread — and learns
  each ephemeral port over a handshake pipe.  Respawn kills and re-forks.
* **connect**: the pool dials pre-started listeners from
  ``worker_hosts``.  Respawn is a reconnect plus a ``__configure__``
  replay (the listener outlives its worker state; a new incarnation is
  a logical respawn server-side).

In both modes workers receive their identity, snapshot, and assignment
via the idempotent ``__configure__`` RPC, so the listener binary is
fleet-generic.

Note for true multi-host runs: shard flushes and data-plane builds go
through the on-disk :class:`~repro.dist.storage.RouteStore`, so the
store directory must be on storage shared by all hosts (matching the
paper's write-to-persistent-storage step).
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config.loader import Snapshot
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from .faults import (
    FaultPlan,
    RespawnError,
    RetryPolicy,
    WorkerDiedError,
)
from .process_runtime import WorkerProcessProxy
from .resources import WorkerResources
from .service import WorkerService
from .transport import RpcChannel, RpcServer, TransportError, parse_hostport

#: Seconds to wait for a freshly forked worker to report its port.
_HANDSHAKE_TIMEOUT = 30.0


def _socket_worker_main(handshake, host: str, port: int) -> None:
    """Worker process entry: bind, report the port, serve until stopped."""
    service = WorkerService()
    server = RpcServer(service.handle, host=host, port=port)
    try:
        handshake.send((server.host, server.port))
        handshake.close()
        server.serve_forever()
    finally:
        service.finish()


def serve_worker(
    listen: str,
    install_signal_handlers: bool = True,
    metrics_listen: Optional[str] = None,
) -> None:
    """Run a standalone worker listener (the ``repro worker`` command).

    Blocks until a controller sends ``__stop__``, or SIGTERM/SIGINT
    arrives.  Identity, snapshot, and assignment all arrive over the
    wire via ``__configure__``; reconfiguration is a logical respawn, so
    one listener can serve many runs.

    ``metrics_listen`` (``host:port``) additionally exposes a local
    OpenMetrics scrape endpoint reporting this worker's live frame —
    remote workers in connect mode are observable even when the
    controller is on another machine.

    Shutdown is graceful: a signal triggers a *draining* server stop —
    the RPC currently executing finishes and its response is delivered
    — then the tracer shard is flushed and the call returns normally
    (exit code 0 from the CLI).
    """
    host, port = parse_hostport(listen)
    service = WorkerService()
    server = RpcServer(service.handle, host=host, port=port)
    metrics_server = None
    if metrics_listen:
        from ..obs.openmetrics import MetricsHTTPServer
        from ..obs.telemetry import TelemetryCollector, TelemetrySource

        scrape_metrics = MetricsRegistry()
        collector = TelemetryCollector(scrape_metrics)
        # A dedicated source per worker incarnation: sharing the RPC
        # piggyback source would consume its sequence numbers and show
        # up as frame gaps on the controller side.
        scrape_sources: Dict[Tuple[int, int], Any] = {}

        def _scrape_snapshot() -> Dict[str, Any]:
            # Fold a fresh frame on demand: the scrape itself is the
            # sampling clock for a standalone worker.
            worker = service.worker
            if worker is not None:
                key = (id(worker), service.incarnation)
                source = scrape_sources.get(key)
                if source is None:
                    scrape_sources.clear()
                    source = TelemetrySource(
                        worker,
                        interval=1e-9,
                        incarnation=max(service.incarnation, 0),
                    )
                    scrape_sources[key] = source
                collector.ingest(source.frame(phase="scrape"))
            return scrape_metrics.snapshot()

        def _scrape_status() -> Dict[str, Any]:
            return {
                "role": "worker",
                "configured": service.configured,
                "incarnation": service.incarnation,
                "listen": f"{server.host}:{server.port}",
            }

        mhost, mport = parse_hostport(metrics_listen)
        metrics_server = MetricsHTTPServer(
            _scrape_snapshot,
            host=mhost,
            port=mport,
            status_fn=_scrape_status,
        )
        print(
            f"worker metrics on http://{metrics_server.address}/metrics",
            flush=True,
        )
    if install_signal_handlers:
        import signal

        def _drain(_signum, _frame) -> None:
            server.stop(drain=True)

        try:
            signal.signal(signal.SIGTERM, _drain)
            signal.signal(signal.SIGINT, _drain)
        except ValueError:
            pass  # not the main thread (embedded in tests)
    print(f"worker listening on {server.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    finally:
        if metrics_server is not None:
            metrics_server.close()
        service.finish()


class SocketWorkerPool:
    """Spawns (or dials) one TCP worker per id and hands out proxies.

    Shares the pool surface of :class:`~repro.dist.worker.LocalWorkerPool`
    (``proxies``, ``respawn``, ``reconfigure``, ``update_snapshot``,
    ``close``), so the controller and :class:`WorkerSupervisor` treat
    both interchangeably; ``transport_counters`` is the remote extra.
    """

    def __init__(
        self,
        snapshot: Snapshot,
        assignment: Dict[str, int],
        num_workers: int,
        capacity: int,
        cost_model,
        max_hops: int = 24,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        trace_dir: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        worker_hosts: Optional[Sequence[str]] = None,
        host: str = "127.0.0.1",
        telemetry_interval: float = 0.0,
        telemetry_sink: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> None:
        self._context = mp.get_context(
            "fork" if os.name == "posix" else "spawn"
        )
        self._configure_args = (
            snapshot, assignment, capacity, cost_model, max_hops
        )
        self._policy = retry_policy or RetryPolicy()
        self._fault_plan = fault_plan
        self._trace_dir = trace_dir
        self._metrics = metrics
        self._host = host
        self._telemetry_interval = telemetry_interval
        self._incarnations: Dict[int, int] = {}
        self.managed = not worker_hosts
        if worker_hosts:
            addresses = [parse_hostport(spec) for spec in worker_hosts]
            if len(addresses) < num_workers:
                raise ValueError(
                    f"{num_workers} workers but only {len(addresses)} "
                    "worker hosts"
                )
            spawned: List[Tuple[Any, Tuple[str, int]]] = [
                (None, addresses[worker_id])
                for worker_id in range(num_workers)
            ]
        else:
            # Fork every server process before any channel exists: the rx
            # and heartbeat threads must never be duplicated into a child.
            spawned = [
                self._spawn_process(worker_id)
                for worker_id in range(num_workers)
            ]
        self.proxies: List[WorkerProcessProxy] = []
        for worker_id, (process, address) in enumerate(spawned):
            channel = self._open_channel(worker_id, address)
            self.proxies.append(
                WorkerProcessProxy(
                    worker_id,
                    channel,
                    process,
                    WorkerResources(
                        name=f"worker{worker_id}",
                        capacity=capacity,
                        model=cost_model,
                    ),
                    policy=self._policy,
                    fault_plan=fault_plan,
                    tracer=tracer,
                    telemetry_sink=telemetry_sink,
                )
            )
            self._configure(worker_id, channel)

    # -- spawning / dialing ----------------------------------------------

    def _spawn_process(self, worker_id: int):
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_socket_worker_main,
            args=(child_conn, self._host, 0),
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_HANDSHAKE_TIMEOUT):
            process.kill()
            raise RespawnError(
                f"worker {worker_id} never reported its port",
                worker_id=worker_id,
            )
        address = parent_conn.recv()
        parent_conn.close()
        return process, tuple(address)

    def _open_channel(
        self, worker_id: int, address: Tuple[str, int]
    ) -> RpcChannel:
        channel = RpcChannel(
            address,
            policy=self._policy,
            worker_id=worker_id,
            fault_plan=self._fault_plan,
            metrics=self._metrics,
            heartbeat=self._policy.heartbeat_interval_seconds > 0,
        )
        return channel

    def _configure(self, worker_id: int, channel: RpcChannel) -> None:
        """Ship identity + snapshot to the worker (idempotent RPC)."""
        snapshot, assignment, capacity, cost_model, max_hops = (
            self._configure_args
        )
        incarnation = self._incarnations.get(worker_id, -1) + 1
        self._incarnations[worker_id] = incarnation
        status, payload = channel.call(
            "__configure__",
            (
                worker_id,
                snapshot,
                assignment,
                capacity,
                cost_model,
                max_hops,
                self._trace_dir,
                incarnation,
                self._telemetry_interval,
            ),
            internal=True,
        )
        if status != "ok":
            raise RespawnError(
                f"worker {worker_id} failed to configure: {payload!r}",
                worker_id=worker_id,
            )

    # -- serving ----------------------------------------------------------

    def update_snapshot(
        self, snapshot: Snapshot, assignment: Optional[Dict[str, int]] = None
    ) -> None:
        """Point future (re)spawns at the current snapshot/assignment.

        The serving layer calls this on *every* delta, including the
        incremental path that never reconfigures live workers: a worker
        respawned mid-epoch must be rebuilt from the session's current
        config, not the boot-time one (it would then fail the epoch
        fence and recovery would loop).
        """
        _old_snapshot, old_assignment, capacity, cost_model, max_hops = (
            self._configure_args
        )
        self._configure_args = (
            snapshot,
            assignment if assignment is not None else old_assignment,
            capacity,
            cost_model,
            max_hops,
        )

    def reconfigure(
        self,
        snapshot: Snapshot,
        assignment: Dict[str, int],
        active: Sequence[int],
    ) -> None:
        """Rebind the ``active`` workers to a new snapshot (logical
        respawn); listeners and channels stay resident.  Transport
        failures surface as :class:`WorkerFailure` for the caller's
        supervisor."""
        self.update_snapshot(snapshot, assignment)
        for worker_id in active:
            try:
                self._configure(worker_id, self.proxies[worker_id]._channel)
            except (TransportError, RespawnError) as exc:
                raise WorkerDiedError(
                    f"worker {worker_id} unreachable during "
                    f"reconfigure: {exc}",
                    worker_id=worker_id,
                    command="__configure__",
                ) from exc

    # -- supervision ------------------------------------------------------

    def respawn(self, worker_id: int) -> WorkerProcessProxy:
        """Give the worker a fresh process (managed) or connection.

        In connect mode the listener is assumed to outlive its worker
        state: respawn redials and replays ``__configure__`` at the next
        incarnation, which rebuilds the worker server-side.  Raises
        :class:`RespawnError` when the worker cannot be brought back —
        the controller's cue to degrade to the sequential fallback.

        The old incarnation is reaped first, so an injected failure
        tears its channel and heartbeat down just as a real one does,
        and a lost worker's transport counters stop changing.
        """
        proxy = self.proxies[worker_id]
        address = proxy._channel.address
        proxy.reap()
        if self._fault_plan is not None and (
            self._fault_plan.should_fail_respawn(worker_id)
        ):
            raise RespawnError(
                f"respawn of worker {worker_id} failed (injected)",
                worker_id=worker_id,
            )
        try:
            if self.managed:
                process, address = self._spawn_process(worker_id)
            else:
                process = None
            channel = self._open_channel(worker_id, address)
            channel.connect()
            proxy.revive(channel, process)
            self._configure(worker_id, channel)
        except TransportError as exc:
            raise RespawnError(
                f"respawn of worker {worker_id} failed: {exc}",
                worker_id=worker_id,
            ) from exc
        except OSError as exc:
            raise RespawnError(
                f"respawn of worker {worker_id} failed: {exc!r}",
                worker_id=worker_id,
            ) from exc
        return proxy

    # -- telemetry --------------------------------------------------------

    def transport_counters(
        self, lost: Sequence[int] = ()
    ) -> Dict[str, Dict[str, int]]:
        """Per-worker channel counters plus a fleet-wide total.

        Workers in ``lost`` are tagged ``lost: True``.  Their channel
        was reaped by the failed respawn that lost them, so their
        counters are frozen at loss time by construction.
        """
        per_worker: Dict[str, Dict[str, Any]] = {}
        for proxy in self.proxies:
            counters: Dict[str, Any] = dict(proxy.transport_counters())
            if proxy.worker_id in lost:
                counters["lost"] = True
            per_worker[f"worker{proxy.worker_id}"] = counters
        totals: Dict[str, int] = {}
        for counters in per_worker.values():
            for name, value in counters.items():
                if name == "lost":
                    continue
                if name == "inflight_high_water":
                    totals[name] = max(totals.get(name, 0), value)
                else:
                    totals[name] = totals.get(name, 0) + value
        per_worker["total"] = totals
        return per_worker

    def close(self) -> None:
        """Stop every worker; never raises (best-effort teardown)."""
        for proxy in self.proxies:
            try:
                proxy.stop(timeout=self._policy.join_timeout)
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        for proxy in self.proxies:
            process = proxy._process
            try:
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(self._policy.join_timeout)
            except (OSError, AttributeError):
                pass
