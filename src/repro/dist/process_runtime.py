"""The controller-side worker proxy: one worker process behind a channel.

Each remote worker is an OS process serving the framed RPC protocol of
:mod:`repro.dist.transport` (see :mod:`repro.dist.socket_runtime`, which
spawns or dials them).  :class:`WorkerProcessProxy` is its handle in the
controller.

Design notes:

* The proxy mirrors the :class:`~repro.dist.worker.Worker` surface the
  orchestrators and sidecars use, so the CPO/DPO code is the same for
  in-process and remote clusters.
* Resource accounting stays controller-side: the remote worker enforces
  its memory ceiling (raising :class:`SimulatedOOM` in situ, relayed back
  and re-raised by the proxy) and returns work counts; the proxy's local
  :class:`WorkerResources` mirror is charged by the orchestrators exactly
  as for in-process workers.
* Shard results are flushed to the shared on-disk
  :class:`~repro.dist.storage.RouteStore` *by the worker process*, so
  converged RIBs never transit the channel (matching §3.1's
  write-to-persistent-storage step).
* **Supervision**: every call runs under the channel's deadline and an
  exponential-backoff retry loop for transient RPC faults; an
  unreachable worker or a timeout surfaces as a
  :class:`~repro.dist.faults.WorkerFailure` the orchestrators recover
  from (respawn + shard replay).  The channel's idempotent request ids
  make a stale response self-identifying, so a timed-out proxy stays
  usable.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Any, Callable, Dict, Optional, Tuple

from ..bdd.engine import BddOverflowError
from ..bdd.headerspace import HeaderEncoding
from ..config.loader import Snapshot
from ..obs.tracer import NULL_TRACER, Tracer
from .faults import (
    FaultPlan,
    RetryPolicy,
    StaleEpochError,
    TransientRpcError,
    WorkerDiedError,
    WorkerFailure,
    WorkerTimeoutError,
)
from .resources import SimulatedOOM, WorkerResources
from .sharding import PrefixShard
from .storage import RouteStore
from .transport import RpcChannel, RpcTimeoutError, TransportError
from .worker import PullOutcome

_RELAYED_EXCEPTIONS = {
    "SimulatedOOM": SimulatedOOM,
    "BddOverflowError": BddOverflowError,
    # Epoch-fence rejections must keep their type across the wire: the
    # supervisor counts them and re-seeds the epoch on recovery.
    "StaleEpochError": StaleEpochError,
}


class RemoteWorkerError(WorkerFailure):
    """An unexpected exception inside a worker process."""


class _CallFuture:
    """Proxy-level future over a wire :class:`RpcFuture`.

    Settling maps transport failures to worker failures and applies the
    proxy's ``_relay`` (telemetry mirror, exception relaying) — the same
    post-processing a blocking call would have done inline.
    """

    __slots__ = ("_proxy", "_command", "_future")

    def __init__(self, proxy, command: str, future) -> None:
        self._proxy = proxy
        self._command = command
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> Any:
        del timeout  # the channel enforces its own call deadline
        with self._proxy._wire_errors(self._command):
            status, payload = self._future.result()
        return self._proxy._relay(self._command, status, payload)


class WorkerProcessProxy:
    """Controller-side handle for one worker process.

    Exposes the Worker methods the orchestrators and sidecars call; each
    call is one request/response on the channel.  The proxy keeps a
    local :class:`WorkerResources` mirror for the cost model, and
    supervises the call: transient-fault retry with exponential backoff
    and fault injection from the attached :class:`FaultPlan`.
    ``process`` is the local worker process, or None for a listener this
    controller dialed but does not own.
    """

    def __init__(
        self,
        worker_id: int,
        channel: RpcChannel,
        process,
        resources: WorkerResources,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        telemetry_sink: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.resources = resources
        self._channel = channel
        self._process = process
        self._policy = policy or RetryPolicy()
        self._fault_plan = fault_plan
        self.tracer = tracer or NULL_TRACER
        # Streaming telemetry frames piggybacked on responses are handed
        # to this callable (the controller's collector) when set.
        self.telemetry_sink = telemetry_sink
        self._flow_seq = 0

    # -- plumbing ---------------------------------------------------------

    def call_nowait(self, command: str, *args):
        """Issue a call without waiting; returns a future with .result().

        The channel multiplexes responses by request id, so several
        requests share the wire up to ``rpc_window``.  With a fault plan
        attached the call is made blocking and an already-settled future
        returned, so injected call faults keep their exact blocking-call
        semantics (preamble, transient retries); the failure, if any, is
        raised at ``result()`` as for a pipelined call.
        """
        if self._fault_plan is not None:
            future: Future = Future()
            try:
                future.set_result(self._call(command, *args))
            except Exception as exc:  # noqa: BLE001 — deferred raise
                future.set_exception(exc)
            return future
        flow_id = self._next_flow_id()
        with self._rpc_span(command, flow_id):
            wire_future = self._channel.call_nowait(
                command, args, flow_id=flow_id
            )
        return _CallFuture(self, command, wire_future)

    def _next_flow_id(self) -> Optional[int]:
        """In-band RPC id: the worker's handler span echoes it, and the
        merge layer draws the caller→callee arrow from the pair."""
        if not self.tracer.enabled:
            return None
        self._flow_seq += 1
        return (self.worker_id + 1) * 1_000_000 + self._flow_seq

    def _rpc_span(self, command: str, flow_id: Optional[int]):
        """The caller-side span of one RPC, the arrow's tail."""
        return self.tracer.span(
            f"rpc.{command}",
            category="rpc",
            flow_id=flow_id,
            flow="out" if flow_id is not None else None,
            worker=self.worker_id,
        )

    def _call(self, command: str, *args) -> Any:
        attempt = 0
        while True:
            try:
                return self._call_once(command, args)
            except TransientRpcError:
                attempt += 1
                self.resources.retries += 1
                if attempt > self._policy.max_call_retries:
                    raise
                time.sleep(self._policy.backoff(attempt))

    def _fault_kill(self) -> None:
        """Kill the worker process to realize an injected crash."""
        try:
            self._process.kill()
            self._process.join(self._policy.join_timeout)
        except (OSError, AttributeError):
            pass

    def _fault_preamble(self, command: str) -> bool:
        """Apply injected call faults; returns kill-after-send."""
        if self._fault_plan is None:
            return False
        spec = self._fault_plan.on_call(self.worker_id, command)
        if spec is None:
            return False
        if spec.kind == "delay":
            time.sleep(spec.delay)
        elif spec.kind == "error":
            raise TransientRpcError(
                f"injected transient RPC failure calling "
                f"{command} on worker {self.worker_id}",
                worker_id=self.worker_id,
                command=command,
            )
        elif spec.kind in ("crash", "host_loss"):
            if spec.where == "after_send":
                return True
            self._fault_kill()
        return False

    def _call_once(self, command: str, args: tuple) -> Any:
        kill_after_send = self._fault_preamble(command)
        flow_id = self._next_flow_id()
        with self._rpc_span(command, flow_id) as span:
            with self._wire_errors(command):
                status, payload = self._channel.call(
                    command,
                    args,
                    flow_id=flow_id,
                    post_send=self._fault_kill if kill_after_send else None,
                    span=span,
                )
        return self._relay(command, status, payload)

    @contextmanager
    def _wire_errors(self, command: str):
        """Map transport failures at the I/O edge to worker failures."""
        try:
            yield
        except RpcTimeoutError as exc:
            raise WorkerTimeoutError(
                str(exc), worker_id=self.worker_id, command=command
            ) from exc
        except TransportError as exc:
            raise WorkerDiedError(
                f"worker {self.worker_id} unreachable during {command}: "
                f"{exc}",
                worker_id=self.worker_id,
                command=command,
            ) from exc

    def _relay(self, command: str, status: str, payload) -> Any:
        """Map a wire response to a result, relayed exception, or error."""
        if status == "exc":
            name, message, trace = payload
            exc_type = _RELAYED_EXCEPTIONS.get(name)
            if exc_type is SimulatedOOM:
                self.resources.oom = True
                raise SimulatedOOM(
                    self.resources.name,
                    self.resources.current_bytes,
                    self.resources.capacity,
                )
            if exc_type is not None:
                if issubclass(exc_type, WorkerFailure):
                    raise exc_type(
                        message, worker_id=self.worker_id, command=command
                    )
                raise exc_type(message)
            raise RemoteWorkerError(
                f"{name}: {message}\n{trace}",
                worker_id=self.worker_id,
                command=command,
            )
        result, telemetry = payload
        (
            self.resources.current_bytes,
            peak,
            self.resources.candidate_routes,
            self.resources.bdd_nodes,
            self.resources.fib_entries,
            oom,
            frame,
        ) = telemetry
        self.resources.peak_bytes = max(self.resources.peak_bytes, peak)
        self.resources.oom = self.resources.oom or oom
        if frame is not None and self.telemetry_sink is not None:
            try:
                self.telemetry_sink(frame)
            except Exception:  # noqa: BLE001 — telemetry must never
                pass  # poison the RPC result path
        return result

    # -- supervision ------------------------------------------------------

    def is_alive(self) -> bool:
        if self._process is not None and not self._process.is_alive():
            return False
        return self._channel.healthy()

    def ping(self) -> bool:
        """Heartbeat: one round trip through the worker's service loop."""
        return self._call("ping") == "pong"

    def reap(self) -> None:
        """Tear down the channel and the dead (or doomed) process."""
        self._channel.close()
        process = self._process
        if process is None:
            return
        try:
            if process.is_alive():
                process.terminate()
                process.join(self._policy.join_timeout)
            if process.is_alive():
                process.kill()
                process.join(self._policy.join_timeout)
        except (OSError, AttributeError):
            pass

    def revive(self, channel: RpcChannel, process) -> None:
        """Adopt a fresh channel (and process), keeping the proxy identity.

        Identity preservation matters: the orchestrators and sidecars
        hold references to this proxy, so a respawn must swap the
        channel and process *inside* it rather than replace it.
        """
        old, self._channel = self._channel, channel
        old.close()
        self._process = process
        self.resources.respawns += 1

    def transport_counters(self) -> Dict[str, int]:
        return dict(self._channel.counters)

    # -- serving ---------------------------------------------------------------

    def begin_epoch(self, epoch: int) -> int:
        return self._call("begin_epoch", epoch)

    def rebind_snapshot(
        self,
        snapshot: Snapshot,
        changed_hosts=(),
        epoch: Optional[int] = None,
    ) -> None:
        self._call("rebind_snapshot", snapshot, tuple(changed_hosts), epoch)

    @property
    def epoch(self) -> int:
        return self._call("epoch_value")

    # -- control plane ---------------------------------------------------------

    def begin_shard(
        self, shard: Optional[PrefixShard], epoch: Optional[int] = None
    ) -> None:
        self._call("begin_shard", shard, epoch)

    def compute_exports(self, round_token: int):
        return self._call("compute_exports", round_token)

    def deliver_routes(self, batch) -> None:
        self._call("deliver_routes", batch)

    def deliver_routes_many(self, batches) -> None:
        self._call("deliver_routes_many", tuple(batches))

    def pull_round(self, round_token: int) -> PullOutcome:
        return self._call("pull_round", round_token)

    def update_memory(self, enforce: bool = True) -> int:
        return self._call("update_memory", enforce)

    def observed_dependencies(self) -> set:
        return self._call("observed_dependencies")

    def fault_counters(self) -> Dict[str, int]:
        return self._call("fault_counters")

    def flush_shard(self, store: RouteStore, shard_index: int) -> Tuple[int, int]:
        """Flush the converged shard to the shared store, worker-side."""
        return self._call("flush_shard", store.directory, shard_index)

    # -- OSPF -----------------------------------------------------------------------

    def has_ospf(self) -> bool:
        return self._call("has_ospf")

    def compute_ospf_exports(self):
        return self._call("compute_ospf_exports")

    def pull_ospf_round(self) -> bool:
        return self._call("pull_ospf_round")

    def install_ospf_routes(self) -> None:
        self._call("install_ospf_routes")

    def export_ospf_state(self):
        return self._call("export_ospf_state")

    def restore_ospf_state(self, state) -> None:
        self._call("restore_ospf_state", state)

    # -- data plane ------------------------------------------------------------------

    def build_dataplane(
        self,
        store: RouteStore,
        resolver,
        encoding: HeaderEncoding,
        node_limit: int = 1 << 24,
        bdd_kernel: str = "flat",
    ) -> int:
        del resolver  # rebuilt worker-side from the snapshot
        return self._call(
            "build_dataplane", store.directory, encoding, node_limit, bdd_kernel
        )

    def set_waypoint_bit(self, node: str, metadata_index: int) -> None:
        self._call("set_waypoint_bit", node, metadata_index)

    def clear_waypoints(self) -> None:
        self._call("clear_waypoints")

    def inject_header(self, sources, header_payload, trace: bool) -> None:
        self._call("inject_header", sources, header_payload, trace)

    def deliver_packets(self, batch) -> None:
        self._call("deliver_packets", batch)

    def drain(self):
        return self._call("drain")

    def collect_finals(self):
        return self._call("collect_finals")

    def reset_dataplane_run(self) -> None:
        self._call("reset_dataplane_run")

    def collect_engine_garbage(self) -> int:
        return self._call("collect_engine_garbage")

    def engine_counters(self) -> Dict[str, float]:
        return self._call("engine_counters")

    @property
    def pending_packets(self) -> int:
        return self._call("pending_packets")

    # -- lifecycle --------------------------------------------------------------------

    def stop(self, timeout: float = 5.0) -> None:
        try:
            self._channel.call("__stop__", timeout=timeout, internal=True)
        except TransportError:
            pass
        self._channel.close()
        process = self._process
        if process is None:
            return
        process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout)
        if process.is_alive():
            # terminate() can be absorbed (e.g. a wedged interpreter):
            # escalate to SIGKILL so close() can never leave a child.
            process.kill()
            process.join(timeout)
