"""Collection-task scheduler: priority queue, retry policy, backoff.

Tasks are ordered by ``(ready_tick, -weight, task_id)`` — due tasks first,
heavier services first among peers, FIFO within a service.  Every failure
path (crash-orphaned, hang-cancelled, deadline-exceeded, result-dropped)
funnels through :meth:`Scheduler.retry`: a bounded attempt budget with
exponential backoff and deterministic seeded jitter, so retry storms decay
instead of thundering and a replay of the same seed produces the same
schedule tick for tick.

Crash recovery has one extra invariant, the one the supervisor exists for:
**every orphaned task is re-queued exactly once** (or explicitly retired
as budget-exhausted).  :meth:`Scheduler.recover_orphan` is the only orphan
path, and its accounting — ``tasks_orphaned == orphans_requeued +
orphans_exhausted`` — is checked by the ``orphan-loss`` SLO rule and the
end-of-run report.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Tuple

from .. import obs
from .status import FleetStats


class RetryPolicy:
    """Bounded attempts, exponential backoff, deterministic jitter."""

    def __init__(self, max_attempts: int = 3, base_backoff: int = 2,
                 backoff_cap: int = 16, jitter: int = 2, seed: int = 0):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_backoff = max(1, base_backoff)
        self.backoff_cap = max(self.base_backoff, backoff_cap)
        self.jitter = max(0, jitter)
        self.seed = seed

    def backoff(self, task_id: int, attempt: int) -> int:
        """Delay in ticks before attempt ``attempt + 1`` may start.

        Exponential in the failed attempt number, capped, plus jitter
        drawn from a stream keyed ``(seed, task_id, attempt)`` — stable
        across runs (replayable) yet decorrelated across tasks (no
        thundering-herd re-dispatch after a mass crash).
        """
        delay = min(self.backoff_cap,
                    self.base_backoff * (2 ** max(0, attempt - 1)))
        if self.jitter:
            rng = random.Random(self.seed * 0x9E3779B1
                                + task_id * 1000003 + attempt)
            delay += rng.randint(0, self.jitter)
        return delay

    def __repr__(self) -> str:
        return (f"<RetryPolicy attempts<={self.max_attempts} "
                f"backoff={self.base_backoff}..{self.backoff_cap}"
                f"+j{self.jitter}>")


class CollectionTask:
    """One profile-collection work item for one service."""

    __slots__ = ("task_id", "service", "revision", "weight", "attempt",
                 "deadline", "enqueued_tick", "ready_tick")

    def __init__(self, task_id: int, service: str, revision: int,
                 weight: float, deadline: int, tick: int):
        self.task_id = task_id
        self.service = service
        self.revision = revision
        self.weight = weight
        #: 1-based attempt number (bumped by every retry).
        self.attempt = 1
        #: Ticks a dispatched attempt may run before the supervisor
        #: cancels it.
        self.deadline = deadline
        self.enqueued_tick = tick
        self.ready_tick = tick

    def __repr__(self) -> str:
        return (f"<CollectionTask #{self.task_id} {self.service} "
                f"attempt={self.attempt} ready={self.ready_tick}>")


class Scheduler:
    """Priority queue of collection tasks + the retry/orphan state machine."""

    def __init__(self, policy: RetryPolicy, stats: FleetStats):
        self.policy = policy
        self.stats = stats
        self._heap: List[Tuple[int, float, int]] = []
        self._tasks: Dict[int, CollectionTask] = {}
        self._queued: set = set()
        self._next_id = 0
        #: task_id -> highest attempt number ever queued (budget audit).
        self.attempts_seen: Dict[int, int] = {}

    # -- queue mechanics ----------------------------------------------------
    def _push(self, task: CollectionTask) -> None:
        if task.task_id in self._queued:
            raise RuntimeError(
                f"task #{task.task_id} queued twice — duplicate re-queue")
        self._queued.add(task.task_id)
        heapq.heappush(self._heap,
                       (task.ready_tick, -task.weight, task.task_id))

    def pending(self) -> int:
        return len(self._queued)

    def due(self, tick: int) -> List[CollectionTask]:
        """Pop every task whose ready tick has arrived, priority order."""
        out: List[CollectionTask] = []
        while self._heap and self._heap[0][0] <= tick:
            _ready, _weight, task_id = heapq.heappop(self._heap)
            self._queued.discard(task_id)
            out.append(self._tasks[task_id])
        return out

    def defer(self, task: CollectionTask, tick: int) -> None:
        """Put a popped-but-undispatched task back (no idle worker)."""
        task.ready_tick = tick + 1
        self._push(task)

    # -- lifecycle ----------------------------------------------------------
    def schedule(self, service, tick: int, deadline: int) -> CollectionTask:
        task = CollectionTask(self._next_id, service.spec.name,
                              service.revision, service.spec.weight,
                              deadline, tick)
        self._next_id += 1
        self._tasks[task.task_id] = task
        self.attempts_seen[task.task_id] = task.attempt
        self._push(task)
        self.stats.bump("tasks_scheduled")
        obs.emit("fleet_task", action="scheduled", task=task.task_id,
                 service=task.service, attempt=task.attempt)
        return task

    def retry(self, task: CollectionTask, tick: int, reason: str,
              action: str = "retried") -> bool:
        """Re-queue a failed attempt under the budget; False = exhausted.

        The re-queued attempt becomes ready after the policy's backoff —
        exponential in the attempt that just failed, plus per-task jitter.
        """
        if task.attempt >= self.policy.max_attempts:
            self.stats.bump("tasks_exhausted")
            obs.emit("fleet_task", action="exhausted", task=task.task_id,
                     service=task.service, attempt=task.attempt,
                     reason=reason)
            return False
        failed_attempt = task.attempt
        task.attempt += 1
        task.ready_tick = tick + self.policy.backoff(task.task_id,
                                                     failed_attempt)
        self.attempts_seen[task.task_id] = task.attempt
        self._push(task)
        self.stats.bump("tasks_retried")
        obs.emit("fleet_task", action=action, task=task.task_id,
                 service=task.service, attempt=task.attempt, reason=reason,
                 ready=task.ready_tick)
        return True

    def recover_orphan(self, task: CollectionTask, tick: int) -> bool:
        """Crash recovery: account the orphan, re-queue it exactly once.

        Returns True when the orphan was re-queued, False when its retry
        budget was already spent (explicitly retired, never lost — the
        ``orphan-loss`` indicator is the difference and must be 0).
        """
        self.stats.bump("tasks_orphaned")
        obs.emit("fleet_task", action="orphaned", task=task.task_id,
                 service=task.service, attempt=task.attempt)
        if self.retry(task, tick, "worker_crash", action="recovered"):
            self.stats.bump("orphans_requeued")
            return True
        self.stats.bump("orphans_exhausted")
        return False

    def budget_respected(self) -> bool:
        """No task ever exceeded the policy's attempt budget."""
        return all(attempts <= self.policy.max_attempts
                   for attempts in self.attempts_seen.values())
