"""Fault-tolerant continuous-profiling fleet service (DESIGN.md sec. 15).

A tick-driven, deterministic simulation of a production continuous-
profiling deployment: a registry of services under rolling releases, a
priority scheduler with bounded retry + exponential backoff + seeded
jitter, a supervised worker pool (crash recovery, heartbeat hang
detection, deadlines), a collection engine doing the *real* PMU +
profgen work, and a generation manager driving the
csspgo -> autofdo -> none degradation chain from profile freshness.
"""

from .collect import CollectionEngine, CollectionError, CollectionOutcome
from .faults import FaultPlane
from .generations import CHAIN, GenerationManager, ProfileGeneration
from .registry import Service, ServiceRegistry, ServiceSpec, default_fleet
from .scheduler import CollectionTask, RetryPolicy, Scheduler
from .service import (FleetConfig, FleetOrchestrator, FleetReport, TickClock,
                      run_fleet)
from .status import FleetStats, StatusCollector
from .workers import SimWorker, WorkerPool

__all__ = [
    "CHAIN",
    "CollectionEngine",
    "CollectionError",
    "CollectionOutcome",
    "CollectionTask",
    "FaultPlane",
    "FleetConfig",
    "FleetOrchestrator",
    "FleetReport",
    "FleetStats",
    "GenerationManager",
    "ProfileGeneration",
    "RetryPolicy",
    "Scheduler",
    "Service",
    "ServiceRegistry",
    "ServiceSpec",
    "SimWorker",
    "StatusCollector",
    "TickClock",
    "WorkerPool",
    "default_fleet",
    "run_fleet",
]
