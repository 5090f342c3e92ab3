"""Supervised worker pool: dispatch, heartbeats, crash/hang recovery.

Workers are *simulated* (the tick clock is what makes a 500-tick fault
storm deterministic and replayable), but the work is real: when a worker's
attempt reaches its finish tick, the collection engine runs the actual
PMU collection + profile generation for that task.

Per tick, in fixed worker order, the supervisor checks each busy worker:

1. **crash** — the fault plane kills the worker: its task is orphaned and
   re-queued exactly once (:meth:`Scheduler.recover_orphan`), a
   replacement worker is respawned into the same slot;
2. **hang** — the worker wedges: heartbeats freeze while the task neither
   progresses nor fails.  After ``heartbeat_timeout`` silent ticks the
   supervisor cancels the attempt cooperatively and retries it;
3. **heartbeat** — a healthy worker heartbeats every tick;
4. **completion** — at the finish tick the real collection runs; an
   operational failure (a dropped collection result) fails the attempt
   into retry;
5. **deadline** — an attempt still running past its per-task deadline
   (slow collection) is cancelled and retried.

Dispatch fills idle workers from the scheduler's due queue in priority
order; surplus due tasks are deferred one tick (never dropped).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .. import obs
from .collect import CollectionEngine, CollectionError, CollectionOutcome
from .faults import FaultPlane
from .registry import ServiceRegistry
from .scheduler import CollectionTask, Scheduler
from .status import FleetStats

IDLE, BUSY, HUNG = "idle", "busy", "hung"

#: on_complete(task, outcome, tick) — the orchestrator's ingest hook.
CompletionHook = Callable[[CollectionTask, CollectionOutcome, int], None]


class SimWorker:
    """One supervised collection worker slot."""

    __slots__ = ("worker_id", "state", "task", "started_tick", "finish_tick",
                 "last_heartbeat", "incarnation")

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.state = IDLE
        self.task: Optional[CollectionTask] = None
        self.started_tick = 0
        self.finish_tick = 0
        self.last_heartbeat = 0
        #: Bumped on every respawn (crash recovery) — the "same slot, new
        #: process" distinction in the worker event stream.
        self.incarnation = 0

    @property
    def name(self) -> str:
        return f"w{self.worker_id}.{self.incarnation}"

    def idle(self) -> None:
        self.state = IDLE
        self.task = None


class WorkerPool:
    """Fixed-width pool of supervised workers."""

    def __init__(self, count: int, *, heartbeat_timeout: int,
                 base_duration: int, engine: CollectionEngine,
                 scheduler: Scheduler, registry: ServiceRegistry,
                 stats: FleetStats, plane: FaultPlane,
                 on_complete: CompletionHook):
        self.workers: List[SimWorker] = [SimWorker(i)
                                         for i in range(max(1, count))]
        self.heartbeat_timeout = max(1, heartbeat_timeout)
        self.base_duration = max(1, base_duration)
        self.engine = engine
        self.scheduler = scheduler
        self.registry = registry
        self.stats = stats
        self.plane = plane
        self.on_complete = on_complete

    # -- per-tick supervision ----------------------------------------------
    def step(self, tick: int) -> None:
        for worker in self.workers:
            if worker.state == IDLE:
                continue
            if self.plane.worker_crash():
                self._crash(worker, tick)
                continue
            if worker.state == BUSY and self.plane.worker_hang():
                worker.state = HUNG
                self.stats.bump("worker_hangs")
                obs.emit("fleet_worker", worker=worker.name, event="hung",
                         task=worker.task.task_id)
            if worker.state == HUNG:
                # A wedged worker neither heartbeats nor finishes; only
                # hang detection can reclaim it.
                if tick - worker.last_heartbeat >= self.heartbeat_timeout:
                    self._cancel(worker, tick, "hang_detected")
                continue
            worker.last_heartbeat = tick
            if tick >= worker.finish_tick:
                self._complete(worker, tick)
            elif tick - worker.started_tick >= worker.task.deadline:
                self.stats.bump("tasks_timed_out")
                self._cancel(worker, tick, "deadline_exceeded")

    def _crash(self, worker: SimWorker, tick: int) -> None:
        """Worker died mid-task: orphan recovery + respawn into the slot."""
        task = worker.task
        self.stats.bump("worker_crashes")
        obs.emit("fleet_worker", worker=worker.name, event="crashed",
                 task=task.task_id)
        self.scheduler.recover_orphan(task, tick)
        worker.incarnation += 1
        worker.idle()
        self.stats.bump("worker_respawns")
        obs.emit("fleet_worker", worker=worker.name, event="respawned")

    def _cancel(self, worker: SimWorker, tick: int, reason: str) -> None:
        """Cooperative cancellation (hang detection or blown deadline)."""
        task = worker.task
        self.stats.bump("tasks_cancelled")
        obs.emit("fleet_task", action="cancelled", task=task.task_id,
                 service=task.service, attempt=task.attempt, reason=reason,
                 worker=worker.name)
        self.scheduler.retry(task, tick, reason)
        worker.idle()

    def _complete(self, worker: SimWorker, tick: int) -> None:
        task = worker.task
        service = self.registry.get(task.service)
        try:
            outcome = self.engine.collect(service, task, self.plane)
        except CollectionError as exc:
            self.stats.bump("tasks_failed")
            obs.emit("fleet_task", action="failed", task=task.task_id,
                     service=task.service, attempt=task.attempt,
                     reason=str(exc))
            self.scheduler.retry(task, tick, "shard_dropped")
            worker.idle()
            return
        self.stats.bump("tasks_completed")
        obs.emit("fleet_task", action="completed", task=task.task_id,
                 service=task.service, attempt=task.attempt,
                 worker=worker.name, samples=outcome.samples,
                 duration=tick - worker.started_tick)
        worker.idle()
        self.on_complete(task, outcome, tick)

    # -- dispatch -----------------------------------------------------------
    def dispatch(self, tick: int) -> None:
        """Fill idle workers from the due queue, priority order."""
        due = self.scheduler.due(tick)
        index = 0
        for worker in self.workers:
            if index >= len(due):
                break
            if worker.state != IDLE:
                continue
            task = due[index]
            index += 1
            duration = self.base_duration * self.plane.slow_factor()
            worker.state = BUSY
            worker.task = task
            worker.started_tick = tick
            worker.finish_tick = tick + duration
            worker.last_heartbeat = tick
            self.stats.bump("tasks_dispatched")
            obs.emit("fleet_task", action="dispatched", task=task.task_id,
                     service=task.service, attempt=task.attempt,
                     worker=worker.name, duration=duration)
        for task in due[index:]:
            # More due work than idle workers: defer, never drop.
            self.scheduler.defer(task, tick)

    def busy(self) -> int:
        return sum(1 for w in self.workers if w.state != IDLE)
