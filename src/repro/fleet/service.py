"""Fleet orchestrator: the supervised scheduler/worker daemon, tick-driven.

One :class:`FleetOrchestrator` wires the whole service together
(DESIGN.md sec. 15): the service registry with rolling releases, the
priority scheduler with retry/backoff, the supervised worker pool with
heartbeat hang detection and crash recovery, the generation manager with
freshness-driven degradation, the status collector, and the fleet fault
plane.  Time is a logical tick clock injected into the event log
(:meth:`~repro.obs.events.EventLog.set_clock`), so a file-backed run is
**byte-reproducible**: same seed, same spec, same services — the same
JSONL, byte for byte.

The per-tick order is fixed and load-bearing for that determinism:

1. rolling releases (registry);
2. schedule due collection tasks (per-service cadence);
3. supervise busy workers (crash / hang / heartbeat / complete / deadline);
4. dispatch due tasks onto idle workers;
5. refresh per-service profile assignments (degradation chain);
6. periodic status rollup.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .. import obs
from ..faults import FaultSpec
from .collect import CollectionEngine, CollectionOutcome
from .faults import FaultPlane
from .generations import GenerationManager
from .registry import Service, ServiceRegistry, default_fleet
from .scheduler import CollectionTask, RetryPolicy, Scheduler
from .status import FleetStats, StatusCollector
from .workers import WorkerPool


class TickClock:
    """Logical time: the orchestrator's tick, readable as a timestamp."""

    def __init__(self) -> None:
        self.tick = 0

    def now(self) -> float:
        return float(self.tick)


class FleetConfig:
    """Every knob of one fleet run (defaults give a brisk smoke sim)."""

    def __init__(self, *, ticks: int = 200, services: int = 3,
                 workers: int = 3, seed: int = 0,
                 collect_every: int = 20, base_duration: int = 3,
                 deadline: int = 8, heartbeat_timeout: int = 4,
                 freshness_window: int = 60, status_every: int = 20,
                 release_every: int = 70,
                 retry: Optional[RetryPolicy] = None,
                 period: int = 59,
                 max_instructions: int = 2_000_000,
                 fault_spec: Optional[FaultSpec] = None):
        self.ticks = max(1, ticks)
        self.services = max(1, services)
        self.workers = max(1, workers)
        self.seed = seed
        self.collect_every = max(1, collect_every)
        self.base_duration = max(1, base_duration)
        self.deadline = max(1, deadline)
        self.heartbeat_timeout = max(1, heartbeat_timeout)
        self.freshness_window = max(1, freshness_window)
        self.status_every = max(1, status_every)
        #: Rolling-release cadence of the heaviest service (0 = frozen
        #: fleet, no identity mismatches ever).
        self.release_every = max(0, release_every)
        self.retry = retry if retry is not None else RetryPolicy(seed=seed)
        self.period = period
        self.max_instructions = max_instructions
        self.fault_spec = fault_spec


class FleetReport:
    """End-of-run summary + the acceptance invariants."""

    def __init__(self, config: FleetConfig, stats: FleetStats,
                 scheduler: Scheduler, services: List[Dict[str, Any]],
                 faults_fired: int):
        self.config = config
        self.totals = stats.totals()
        self.orphan_loss = stats.orphan_loss()
        self.budget_respected = scheduler.budget_respected()
        self.max_attempts_seen = max(scheduler.attempts_seen.values(),
                                     default=0)
        self.pending_tasks = scheduler.pending()
        self.services = services
        self.faults_fired = faults_fired

    def check(self) -> List[str]:
        """Violated invariants (empty = the run is acceptable)."""
        violations: List[str] = []
        if self.orphan_loss != 0:
            violations.append(
                f"orphan loss: {self.totals['tasks_orphaned']} orphaned != "
                f"{self.totals['orphans_requeued']} requeued + "
                f"{self.totals['orphans_exhausted']} exhausted")
        if not self.budget_respected:
            violations.append(
                f"retry budget exceeded: saw attempt "
                f"{self.max_attempts_seen} > "
                f"{self.config.retry.max_attempts}")
        if (self.totals["tasks_dispatched"]
                and not self.totals["tasks_completed"]):
            violations.append("dispatched tasks but completed none")
        for service in self.services:
            if service["assigned"] != service["eligible"]:
                violations.append(
                    f"service {service['name']}: assigned "
                    f"{service['assigned']} but eligible "
                    f"{service['eligible']}")
            if service["reason"] not in ("fresh", "unprofiled",
                                         "ProfileStaleError",
                                         "BinaryMismatchError"):
                violations.append(
                    f"service {service['name']}: unaccounted assignment "
                    f"reason {service['reason']!r}")
        return violations

    def to_dict(self) -> Dict[str, Any]:
        return {"ticks": self.config.ticks, "totals": dict(self.totals),
                "orphan_loss": self.orphan_loss,
                "max_attempts_seen": self.max_attempts_seen,
                "pending_tasks": self.pending_tasks,
                "faults_fired": self.faults_fired,
                "services": [dict(s) for s in self.services],
                "violations": self.check()}

    def render(self) -> str:
        lines = [f"fleet run: {self.config.ticks} ticks, "
                 f"{len(self.services)} services, "
                 f"{self.config.workers} workers"]
        totals = self.totals
        lines.append(
            f"  tasks      scheduled={totals['tasks_scheduled']} "
            f"completed={totals['tasks_completed']} "
            f"retried={totals['tasks_retried']} "
            f"exhausted={totals['tasks_exhausted']} "
            f"pending={self.pending_tasks}")
        lines.append(
            f"  failures   crashes={totals['worker_crashes']} "
            f"hangs={totals['worker_hangs']} "
            f"timeouts={totals['tasks_timed_out']} "
            f"shard_drops={totals['tasks_failed']} "
            f"orphaned={totals['tasks_orphaned']} "
            f"(requeued={totals['orphans_requeued']} "
            f"retired={totals['orphans_exhausted']})")
        lines.append(
            f"  profiles   generations={totals['generations']} "
            f"releases={totals['releases']} "
            f"fallbacks={totals['fallbacks']} "
            f"faults_fired={self.faults_fired}")
        for service in self.services:
            lines.append(
                f"  {service['name']:10s} rev={service['revision']} "
                f"gens={service['generations']} "
                f"variant={service['assigned']} ({service['reason']})")
        violations = self.check()
        if violations:
            lines.append("  INVARIANT VIOLATIONS:")
            lines.extend(f"    - {violation}" for violation in violations)
        else:
            lines.append("  invariants OK (orphan loss 0, retry budget "
                         "respected, assignments consistent)")
        return "\n".join(lines)


class FleetOrchestrator:
    """The daemon: wires registry, scheduler, workers, generations, status."""

    def __init__(self, config: FleetConfig,
                 services: Optional[List[Service]] = None):
        self.config = config
        self.clock = TickClock()
        session = obs.active()
        if session is not None:
            # Logical time makes a file-backed event log byte-reproducible
            # across runs of the same seed.
            session.log.set_clock(self.clock.now)
        self.plane = FaultPlane(config.fault_spec)
        self.stats = FleetStats()
        self.registry = ServiceRegistry(
            services if services is not None else default_fleet(
                config.services, seed=config.seed,
                collect_every=config.collect_every,
                release_every=config.release_every))
        self.engine = CollectionEngine(
            seed=config.seed, period=config.period,
            max_instructions=config.max_instructions,
            fault_spec=config.fault_spec)
        self.scheduler = Scheduler(config.retry, self.stats)
        self.generations = GenerationManager(
            freshness_window=config.freshness_window, stats=self.stats,
            plane=self.plane)
        self.pool = WorkerPool(
            config.workers, heartbeat_timeout=config.heartbeat_timeout,
            base_duration=config.base_duration, engine=self.engine,
            scheduler=self.scheduler, registry=self.registry,
            stats=self.stats, plane=self.plane,
            on_complete=self._ingest)
        self.status = StatusCollector(config.status_every, self.stats,
                                      self.registry, self.generations)

    def _ingest(self, task: CollectionTask, outcome: CollectionOutcome,
                tick: int) -> None:
        self.generations.ingest(self.registry.get(task.service), task,
                                outcome, tick)

    def _schedule_due(self, tick: int) -> None:
        for service in self.registry:
            spec = service.spec
            if tick % spec.collect_every == spec.collect_offset:
                self.scheduler.schedule(service, tick, self.config.deadline)

    def run(self) -> FleetReport:
        """Run the full simulation."""
        config = self.config
        for tick in range(config.ticks):
            self.clock.tick = tick
            self.stats.bump("releases", len(self.registry.step(tick)))
            self._schedule_due(tick)
            self.pool.step(tick)
            self.pool.dispatch(tick)
            self.generations.refresh(self.registry, tick)
            self.status.maybe(tick)
        last = config.ticks - 1
        self.clock.tick = last
        self.status.final(last)
        faults_fired = self.plane.report()
        return self._report(last, faults_fired)

    def _report(self, tick: int, faults_fired: int) -> FleetReport:
        services: List[Dict[str, Any]] = []
        for service in self.registry:
            name = service.spec.name
            assigned, reason = self.generations.assigned.get(
                name, ("none", "unprofiled"))
            eligible, _ereason, _gen = self.generations.eligible(service,
                                                                 tick)
            services.append({
                "name": name, "revision": service.revision,
                "binary": service.binary_id,
                "generations": self.generations.count_for(name),
                "assigned": assigned, "eligible": eligible,
                "reason": reason})
        return FleetReport(self.config, self.stats, self.scheduler,
                           services, faults_fired)


def run_fleet(config: FleetConfig,
              services: Optional[List[Service]] = None) -> FleetReport:
    """Build an orchestrator and run the simulation to completion."""
    return FleetOrchestrator(config, services).run()
