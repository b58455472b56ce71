"""The one record of fleet membership (§3.2).

:class:`~repro.dist.controller.S2Controller` builds a :class:`Fleet` and
hands it by reference to the supervisor and both orchestrators, so a
loss or a rejoin changes membership in exactly one place: the active
workers and their sidecars (kept aligned, peer maps re-registered on
every change), the permanently lost workers in loss order, and the
serving epoch every (re)joining worker is fenced to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from .sidecar import Sidecar


@dataclass
class LostWorker:
    """A worker that left the fleet: its frozen identity (stats stay
    reportable, a healed host rejoins as the same proxy) and why."""

    worker: Any
    sidecar: Sidecar
    reason: str


class Fleet:
    """Active workers and sidecars, the lost set, the serving epoch."""

    def __init__(self, workers: Sequence[Any], sidecars: Sequence[Sidecar]):
        self.workers: List[Any] = list(workers)
        self.sidecars: List[Sidecar] = list(sidecars)
        # Insertion order is loss order: the partition rule re-plans
        # around the lost workers in the order they left.
        self.lost: Dict[int, LostWorker] = {}
        # Serving mode: the epoch a (re)joining worker must be seeded to
        # before it may touch a shard.  None outside serving.
        self.epoch: Optional[int] = None
        self._register_peers()

    @property
    def active_ids(self) -> List[int]:
        return [worker.worker_id for worker in self.workers]

    def worker(self, worker_id: int) -> Optional[Any]:
        """The active worker with this id, or None."""
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return worker
        return None

    def lose(self, worker_id: int, reason: str) -> None:
        """Move an active worker (and its sidecar) to the lost set."""
        index = self.active_ids.index(worker_id)
        self.lost[worker_id] = LostWorker(
            self.workers[index], self.sidecars[index], reason
        )
        # Fresh lists, never in-place edits: a phase iterating the old
        # membership finishes on it.
        self.workers = self.workers[:index] + self.workers[index + 1:]
        self.sidecars = self.sidecars[:index] + self.sidecars[index + 1:]
        self._register_peers()

    def rejoin(self, worker_id: int) -> None:
        """Return a lost worker to the active set, in worker-id order."""
        entry = self.lost.pop(worker_id)
        self.workers = sorted(
            self.workers + [entry.worker], key=lambda w: w.worker_id
        )
        self.sidecars = sorted(
            self.sidecars + [entry.sidecar], key=lambda s: s.worker_id
        )
        self._register_peers()

    def _register_peers(self) -> None:
        for sidecar in self.sidecars:
            sidecar.register_peers(self.sidecars)
