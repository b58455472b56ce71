"""Tests for the worker-process proxy (one OS process per worker).

Every remote worker runs behind the socket runtime's pool; these tests
cover what the proxy in :mod:`repro.dist.process_runtime` adds on top of
the wire: results, relayed failures, the resource mirror, and the
worker-side shard flush.
"""

import multiprocessing
import os

import pytest

from tests.conftest import normalize_ribs
from repro.dataplane.queries import Query
from repro.dist.controller import S2Controller, S2Options
from repro.dist.process_runtime import RemoteWorkerError, WorkerProcessProxy
from repro.dist.resources import CostModel
from repro.dist.socket_runtime import SocketWorkerPool


@pytest.fixture()
def process_controller(fattree4):
    controller = S2Controller(
        fattree4,
        S2Options(num_workers=3, num_shards=2, runtime="socket"),
    )
    yield controller
    controller.close()


class TestProcessCluster:
    def test_workers_are_proxies(self, process_controller):
        assert all(
            isinstance(w, WorkerProcessProxy)
            for w in process_controller.workers
        )

    def test_ribs_match_monolithic(self, process_controller, fattree4_sim):
        _, expected = fattree4_sim
        process_controller.run_control_plane()
        got = process_controller.collected_ribs()
        assert normalize_ribs(got) == normalize_ribs(expected)

    def test_full_verification(self, fattree4):
        from repro.core.s2 import verify_snapshot

        result = verify_snapshot(
            fattree4, S2Options(num_workers=3, num_shards=2, runtime="socket")
        )
        assert result.ok
        assert result.reachable_pairs == 64

    def test_dataplane_queries(self, process_controller):
        checker = process_controller.checker()
        result = checker.check_reachability(
            Query(sources=("edge-0-0",), destinations=("edge-2-1",))
        )
        assert result.holds("edge-0-0", "edge-2-1")

    def test_oom_relayed_from_process(self, fattree4):
        from repro.core.s2 import verify_snapshot

        result = verify_snapshot(
            fattree4,
            S2Options(num_workers=2, runtime="socket", worker_capacity=1),
        )
        assert result.status == "oom"

    def test_resource_mirror_tracks_peaks(self, process_controller):
        process_controller.run_control_plane()
        for proxy in process_controller.workers:
            assert proxy.resources.peak_bytes > 0

    def test_rpc_accounting_still_charged(self, process_controller):
        process_controller.run_control_plane()
        report = process_controller.report()
        assert report.total_rpc_bytes > 0

    def test_processes_die_on_close(self, fattree4):
        """After a control-plane run, close stops every worker process
        and the proxies the orchestrators hold report them gone."""
        controller = S2Controller(
            fattree4, S2Options(num_workers=2, runtime="socket")
        )
        controller.run_control_plane()
        processes = [w._process for w in controller.workers]
        assert all(p.is_alive() for p in processes)
        controller.close()
        assert all(not p.is_alive() for p in processes)
        assert not any(w.is_alive() for w in controller.workers)

    def test_remote_error_surfaces(self, process_controller):
        proxy = process_controller.workers[0]
        with pytest.raises(RemoteWorkerError):
            proxy._call("no_such_method")

    def test_shard_flush_happens_in_worker_process(self, process_controller):
        process_controller.run_control_plane()
        store_dir = process_controller.store.directory
        files = [f for f in os.listdir(store_dir) if f.endswith(".rib")]
        # 3 workers x 2 shards
        assert len(files) == 6


class TestPoolDirect:
    def test_pool_lifecycle(self, fattree4):
        from repro.dist.partition import partition

        assignment = partition(fattree4, 2).assignment
        pool = SocketWorkerPool(
            snapshot=fattree4,
            assignment=assignment,
            num_workers=2,
            capacity=1 << 62,
            cost_model=CostModel(),
        )
        try:
            for proxy in pool.proxies:
                proxy.begin_shard(None)
                assert proxy.pending_packets == 0
        finally:
            pool.close()

    def test_stop_is_idempotent(self, fattree4):
        from repro.dist.partition import partition

        assignment = partition(fattree4, 1).assignment
        pool = SocketWorkerPool(
            snapshot=fattree4,
            assignment=assignment,
            num_workers=1,
            capacity=1 << 62,
            cost_model=CostModel(),
        )
        proxy = pool.proxies[0]
        proxy.stop()
        assert not proxy.is_alive()
        proxy.stop()  # a second stop must not raise
        pool.close()
        pool.close()  # nor a close after the workers are stopped


def test_pipe_runtime_is_refused(fattree4):
    """The pipe runtime is gone: asking for it is a usage error raised
    before any worker process is forked."""
    before = set(multiprocessing.active_children())
    with pytest.raises(ValueError, match="process"):
        S2Controller(fattree4, S2Options(num_workers=2, runtime="process"))
    assert set(multiprocessing.active_children()) <= before
