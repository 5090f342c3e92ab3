"""Structured event log: the durable half of the telemetry story.

:mod:`repro.telemetry` answers "what is happening *right now* in this
process" — counters, spans and remarks that vanish at exit.  The event log
answers "what happened, when, and why" across runs: an **append-only JSONL
stream** of typed events that a fleet-side status collector (ROADMAP item 1)
can tail, aggregate and alert on, the way the Score-P/LLVM plug-in work
streams tool-consumable instrumentation records.

Every event is one JSON object per line::

    {"type": "fallback_taken", "seq": 17, "ts": 1699999999.25,
     "from_variant": "csspgo", "to_variant": "autofdo",
     "reason": "ProfileStaleError"}

``type`` must be registered in :data:`EVENT_TYPES`, which also names each
type's required fields — emission validates both, so a malformed event is a
bug at the *producer*, never a surprise at the consumer.  Extra fields
beyond the required set are allowed (schemas grow forward-compatibly).

The module-level :func:`emit` mirrors the telemetry pattern: it writes to
the process-wide installed :class:`EventLog` and is a no-op (one global
check) when none is installed, so instrumented code paths cost nothing in
normal operation.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO


#: Registered event types -> tuple of required field names.  ``seq`` and
#: ``ts`` are stamped by the log itself and are implicit for every type.
EVENT_TYPES: Dict[str, tuple] = {
    # One PGO cycle started / finished for a variant.
    "run_started": ("variant",),
    "run_finished": ("variant",),
    # A profile came out of profgen; carries the provenance manifest.
    "profile_generated": ("variant", "kind", "manifest"),
    # A profile was applied to a build (annotation outcome).
    "profile_applied": ("variant", "annotated", "rejected_checksum"),
    # One hop of the graceful-degradation chain, with the reason why.
    "fallback_taken": ("from_variant", "to_variant", "reason"),
    # Samples discarded at a pipeline boundary, by reason.
    "samples_dropped": ("stage", "reason", "count"),
    # Deterministic fault injection actually corrupted something.
    "faults_injected": ("kind", "count"),
    # One benchmark measurement (bench_profgen/bench_executor --events-out).
    "bench_point": ("bench", "metric", "value"),
    # Rolling totals of the metrics registry (the time-series backbone).
    "metrics_snapshot": ("label", "totals"),
    # One completed telemetry span, exported at end of run.
    "span": ("name", "category", "duration_us"),
    # One SLO rule verdict (written back by ``repro report``).
    "slo_evaluated": ("rule", "verdict"),
    # One module-level profile-inference pass: solver path, solve and
    # fallback counts (see inference.flow).
    "inference_run": ("functions", "inferred", "solver"),
    # One classified departure from the primary inference solver
    # (rank_deficient / negative_flow / scipy_missing / ...).
    "solver_fallback": ("function", "reason"),
    # One profile-linter finding (``repro lint`` / ``repro validate --lint``).
    "lint_finding": ("rule", "function", "detail"),
    # End-of-lint rollup: total findings and functions checked.
    "lint_summary": ("findings", "functions_checked", "rules"),
    # A cross-build PerfData merge was refused (identity mismatch).
    "merge_rejected": ("site", "ours", "theirs"),
    # One collection-task lifecycle transition in the fleet scheduler
    # (scheduled/dispatched/completed/retried/orphaned/recovered/
    # cancelled/exhausted/failed).
    "fleet_task": ("action", "task", "service", "attempt"),
    # One supervised-worker lifecycle transition (spawned/crashed/hung/
    # cancelled/respawned).
    "fleet_worker": ("worker", "event"),
    # One service released a new binary revision (rolling deploy).
    "fleet_release": ("service", "revision", "binary"),
    # The profile variant a service is currently served with changed
    # (fresh csspgo, degraded autofdo, or none), and why.
    "fleet_assignment": ("service", "variant", "reason"),
    # Periodic fleet rollup: scheduler/worker/generation totals plus the
    # fraction of services on a fresh context profile.
    "fleet_status": ("tick", "totals", "freshness"),
}


class Event:
    """One typed, timestamped record."""

    __slots__ = ("type", "seq", "ts", "fields")

    def __init__(self, etype: str, seq: int, ts: float,
                 fields: Dict[str, Any]):
        self.type = etype
        self.seq = seq
        self.ts = ts
        self.fields = fields

    def get(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"type": self.type, "seq": self.seq,
                                  "ts": self.ts}
        record.update(self.fields)
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Event":
        etype = record.get("type")
        if not isinstance(etype, str) or etype not in EVENT_TYPES:
            raise ValueError(f"unknown event type {etype!r}")
        missing = [name for name in EVENT_TYPES[etype] if name not in record]
        if missing:
            raise ValueError(
                f"{etype} event missing required fields: {missing}")
        fields = {key: value for key, value in record.items()
                  if key not in ("type", "seq", "ts")}
        return cls(etype, int(record.get("seq", 0)),
                   float(record.get("ts", 0.0)), fields)

    def __repr__(self) -> str:
        return f"<Event {self.type} seq={self.seq}>"


class EventLog:
    """Append-only, optionally file-backed event stream.

    With ``path`` set, every event is appended to the JSONL file as it is
    emitted (line-buffered — a crashed run still leaves a readable log,
    which is the whole point of durable observability).  Events are also
    kept in memory for same-process consumers (``repro report`` on a live
    session, tests).

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, path: Optional[str] = None,
                 clock: Callable[[], float] = time.time):
        self.path = path
        self.events: List[Event] = []
        self._clock = clock
        self._seq = 0
        self._sink: Optional[TextIO] = None
        if path is not None:
            self._sink = open(path, "w", buffering=1)

    def now(self) -> float:
        return self._clock()

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Swap the timestamp source (e.g. a fleet simulation's tick clock,
        so a file-backed log becomes byte-reproducible across runs)."""
        self._clock = clock

    def emit(self, etype: str, **fields: Any) -> Event:
        """Validate, stamp, store and (when file-backed) append one event.

        The file write is crash-safe: the whole record is serialized first
        and lands as a **single** ``write`` of one complete line, followed
        by a flush — a producer killed mid-emit can tear at most the final
        line, never interleave two, and everything before the tear is
        already on disk (:func:`read_event_log` skips-and-counts a torn
        tail instead of raising).
        """
        required = EVENT_TYPES.get(etype)
        if required is None:
            raise ValueError(
                f"unknown event type {etype!r} (registered: "
                f"{', '.join(sorted(EVENT_TYPES))})")
        missing = [name for name in required if name not in fields]
        if missing:
            raise ValueError(
                f"{etype} event missing required fields: {missing}")
        event = Event(etype, self._seq, self._clock(), fields)
        self._seq += 1
        self.events.append(event)
        if self._sink is not None:
            line = json.dumps(event.to_dict(), separators=(",", ":"),
                              sort_keys=True)
            self._sink.write(line + "\n")
            self._sink.flush()
        return event

    def of_type(self, etype: str) -> List[Event]:
        return [event for event in self.events if event.type == etype]

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __len__(self) -> int:
        return len(self.events)

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"<EventLog {len(self.events)} events path={self.path!r}>"


def read_event_log(path: str, strict: bool = False
                   ) -> "tuple[List[Event], int]":
    """Parse a JSONL event log; returns ``(events, malformed_lines)``.

    Permissive by default — a half-written trailing line from a crashed
    producer, or an event type from a newer schema, is counted and skipped
    rather than poisoning the whole report.  ``strict=True`` raises on the
    first bad line (the round-trip contract tests use this) — except for a
    **torn final line** (the file does not end in a newline): that is the
    expected signature of a killed worker, not a schema violation, so it is
    skipped-and-counted in both modes and ``repro report`` keeps working.
    """
    events: List[Event] = []
    malformed = 0
    with open(path) as handle:
        content = handle.read()
    torn_tail = bool(content) and not content.endswith("\n")
    lines = content.splitlines()
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("event line is not a JSON object")
            events.append(Event.from_dict(record))
        except (ValueError, KeyError, TypeError) as exc:
            if strict and not (torn_tail and lineno == len(lines)):
                raise ValueError(f"line {lineno}: {exc}") from exc
            malformed += 1
    return events, malformed


def events_to_dicts(events: Iterable[Event]) -> List[Dict[str, Any]]:
    return [event.to_dict() for event in events]
