"""Collection engine: the real profiling work behind each fleet task.

The fleet simulation is tick-driven and deterministic, but the work it
supervises is real: a completed task attaches the PMU to the service's
deployed binary, runs its training input, and generates a context profile
(``correlate.profgen``).  Sample streams are seeded per ``(fleet seed,
service, revision, task, attempt)``, so a retried attempt re-collects a
*different* (but replayable) stream — the way a rerun on real hardware
would — while the same fleet seed reproduces every byte across runs.
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..correlate.profgen import generate_context_profile
from ..faults import FaultSpec, apply_perf_faults
from ..hw.executor import execute, make_pmu
from ..hw.pmu import PMUConfig
from .faults import FaultPlane
from .registry import Service
from .scheduler import CollectionTask


class CollectionError(RuntimeError):
    """A collection attempt failed operationally (retryable)."""


class CollectionOutcome:
    """Everything one successful collection produced."""

    __slots__ = ("profile", "data", "binary_id", "samples", "unique_samples",
                 "jitter_seed")

    def __init__(self, profile, data, binary_id: str, jitter_seed: int):
        self.profile = profile
        self.data = data
        self.binary_id = binary_id
        self.samples = len(data)
        self.unique_samples = len(data.aggregated()) if len(data) else 0
        self.jitter_seed = jitter_seed


class CollectionEngine:
    """Executes collection tasks: PMU run + context profile generation."""

    def __init__(self, *, seed: int = 0, period: int = 59,
                 max_instructions: int = 2_000_000,
                 fault_spec: Optional[FaultSpec] = None):
        self.seed = seed
        self.period = period
        self.max_instructions = max_instructions
        #: Data-plane faults (``perf``-kind injectors) applied to every
        #: collection's samples — operational and data faults compose.
        self.fault_spec = fault_spec

    # -- determinism --------------------------------------------------------
    def jitter_seed(self, service: Service, task: CollectionTask) -> int:
        """PMU jitter seed for one attempt: stable across runs, distinct
        across services, revisions, tasks, and attempts."""
        return (self.seed * 0x9E3779B1
                + zlib.crc32(service.spec.name.encode("utf-8"))
                + service.revision * 104729
                + task.task_id * 1000003
                + task.attempt) & 0x7FFFFFFF

    # -- the work -----------------------------------------------------------
    def collect(self, service: Service, task: CollectionTask,
                plane: FaultPlane) -> CollectionOutcome:
        """Run one collection attempt end to end.

        Raises :class:`CollectionError` when the fault plane drops the
        collection result (the attempt fails and the scheduler retries it).
        """
        artifacts = service.build
        jitter = self.jitter_seed(service, task)
        pmu = make_pmu(PMUConfig(period=self.period, jitter_seed=jitter))
        run = execute(artifacts.binary, [service.spec.workload.requests],
                      pmu=pmu, max_instructions=self.max_instructions)
        data = pmu.finish(run.instructions_retired)
        if self.fault_spec is not None:
            data, _report = apply_perf_faults(data, self.fault_spec)
        if plane.drop_shard():
            raise CollectionError("collection result lost in flight")
        profile, _inferrer = generate_context_profile(
            artifacts.binary, data, artifacts.probe_meta)
        return CollectionOutcome(profile, data, artifacts.binary.identity(),
                                 jitter)
