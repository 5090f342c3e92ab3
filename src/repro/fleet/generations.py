"""Rolling profile generations + freshness-driven degradation.

Each completed collection becomes a :class:`ProfileGeneration` — the
context profile, the retained samples, and a full provenance manifest
(:class:`~repro.obs.provenance.ProfileManifest`) emitted as a
``profile_generated`` event.  Per service the manager keeps a short
rolling window of generations and decides, every tick, which profile
variant the service is *eligible* to run on:

* the newest generation matches the deployed binary's identity and is
  within the freshness window -> **csspgo** (the full context profile);
* it matches but has expired -> **autofdo**, reason ``ProfileStaleError``:
  a DWARF profile is regenerated lazily from the generation's retained
  samples against the same binary (checksums and probe ids no longer
  gate it) — the first hop of the degradation chain;
* every retained generation belongs to an older binary (a rolling release
  raced ahead of collection) -> **none**, reason ``BinaryMismatchError``:
  address-based profiles from another build are garbage, so the service
  runs unprofiled until a fresh collection lands;
* the service has never been profiled -> **none**, reason ``unprofiled``
  (warmup, not a degradation).

Transitions emit ``fleet_assignment`` events; *downward* transitions
additionally emit one ``fallback_taken`` event per chain hop
(csspgo -> autofdo -> none), the same event the PGO driver's in-build
degradation chain produces — one vocabulary for both planes.

Clock skew (the ``clock_skew`` fleet injector) pre-ages a generation's
effective timestamp at ingest, so freshness decisions can be wrong in
exactly the way NTP drift makes them wrong in production.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import obs
from ..correlate.profgen import generate_dwarf_profile
from ..obs import ProfileManifest
from ..profile.stats import profile_stats
from .collect import CollectionOutcome
from .faults import FaultPlane
from .registry import Service
from .scheduler import CollectionTask
from .status import FleetStats

#: The degradation chain, best to worst.
CHAIN = ("csspgo", "autofdo", "none")
_RANK = {variant: rank for rank, variant in enumerate(CHAIN)}


class ProfileGeneration:
    """One rolling generation of one service's profile."""

    __slots__ = ("service", "revision", "binary_id", "index", "created_tick",
                 "effective_tick", "skew", "profile", "data", "manifest",
                 "_dwarf")

    def __init__(self, service: str, revision: int, binary_id: str,
                 index: int, created_tick: int, skew: int, profile, data,
                 manifest: Dict):
        self.service = service
        self.revision = revision
        self.binary_id = binary_id
        self.index = index
        self.created_tick = created_tick
        #: What freshness actually compares against: the creation tick
        #: minus any injected clock skew (a skewed collection host stamps
        #: its profile "older" than the fleet clock says).
        self.effective_tick = created_tick - skew
        self.skew = skew
        self.profile = profile
        #: Samples retained for lazy DWARF regeneration on degradation.
        self.data = data
        self.manifest = manifest
        self._dwarf = None

    def dwarf_profile(self, binary):
        """The AutoFDO fallback profile, regenerated lazily and cached."""
        if self._dwarf is None:
            self._dwarf = generate_dwarf_profile(binary, self.data)
        return self._dwarf

    def __repr__(self) -> str:
        return (f"<ProfileGeneration {self.service}#{self.index} "
                f"rev={self.revision} tick={self.created_tick}>")


class GenerationManager:
    """Rolling generations per service + the assignment state machine."""

    def __init__(self, *, freshness_window: int, stats: FleetStats,
                 plane: FaultPlane, keep: int = 2):
        self.freshness_window = max(1, freshness_window)
        self.stats = stats
        self.plane = plane
        self.keep = max(1, keep)
        self._generations: Dict[str, List[ProfileGeneration]] = {}
        self._counter: Dict[str, int] = {}
        #: service -> (variant, reason) currently assigned.
        self.assigned: Dict[str, Tuple[str, str]] = {}

    # -- ingest -------------------------------------------------------------
    def ingest(self, service: Service, task: CollectionTask,
               outcome: CollectionOutcome, tick: int) -> ProfileGeneration:
        name = service.spec.name
        index = self._counter.get(name, 0)
        self._counter[name] = index + 1
        skew = self.plane.clock_skew(self.freshness_window)
        manifest = ProfileManifest(
            variant="csspgo", kind="context",
            binary_identity=outcome.binary_id,
            perf={"samples": outcome.samples,
                  "unique_samples": outcome.unique_samples,
                  "dedup_ratio": (outcome.unique_samples / outcome.samples
                                  if outcome.samples else 0.0),
                  "period": outcome.data.period,
                  "lbr_depth": outcome.data.lbr_depth,
                  "pebs": outcome.data.pebs,
                  "instructions_retired":
                      outcome.data.instructions_retired,
                  "binary_id": outcome.data.binary_id,
                  "jitter_seed": outcome.jitter_seed},
            faults={"spec": (repr(self.plane.spec)
                             if self.plane.spec is not None else None),
                    "injected": {"clock_skew.ticks": skew} if skew else {}},
            profile_stats=profile_stats(outcome.profile),
            created_at=float(tick))
        record = manifest.to_dict()
        generation = ProfileGeneration(
            name, task.revision, outcome.binary_id, index, tick, skew,
            outcome.profile, outcome.data, record)
        rolling = self._generations.setdefault(name, [])
        rolling.insert(0, generation)
        del rolling[self.keep:]
        self.stats.bump("generations")
        obs.emit("profile_generated", variant="csspgo", kind="context",
                 manifest=record, service=name, generation=index,
                 skew=skew)
        return generation

    # -- queries ------------------------------------------------------------
    def generations_of(self, name: str) -> List[ProfileGeneration]:
        return list(self._generations.get(name, []))

    def count_for(self, name: str) -> int:
        return self._counter.get(name, 0)

    def eligible(self, service: Service, tick: int
                 ) -> Tuple[str, str, Optional[ProfileGeneration]]:
        """Best variant the retained generations support right now."""
        rolling = self._generations.get(service.spec.name, [])
        match = next((gen for gen in rolling
                      if gen.binary_id == service.binary_id), None)
        if match is not None:
            age = tick - match.effective_tick
            if 0 <= age <= self.freshness_window:
                return "csspgo", "fresh", match
            return "autofdo", "ProfileStaleError", match
        if rolling:
            return "none", "BinaryMismatchError", rolling[0]
        return "none", "unprofiled", None

    # -- the per-tick assignment sweep --------------------------------------
    def refresh(self, services, tick: int) -> None:
        for service in services:
            name = service.spec.name
            variant, reason, generation = self.eligible(service, tick)
            previous = self.assigned.get(name)
            if previous == (variant, reason):
                continue
            if previous is not None:
                self._emit_hops(name, previous[0], variant, reason)
            if variant == "autofdo" and generation is not None:
                # Materialize the fallback profile now — degradation must
                # leave the service *servable*, not promise a profile.
                generation.dwarf_profile(service.build.binary)
            self.assigned[name] = (variant, reason)
            self.stats.bump("assignment_changes")
            obs.emit("fleet_assignment", service=name, variant=variant,
                     reason=reason, tick=tick,
                     generation=(generation.index
                                 if generation is not None else None))

    def _emit_hops(self, name: str, from_variant: str, to_variant: str,
                   reason: str) -> None:
        """Downward transitions emit the chain hop by hop; upgrades don't."""
        start, end = _RANK[from_variant], _RANK[to_variant]
        for rank in range(start, end):
            self.stats.bump("fallbacks")
            obs.emit("fallback_taken", from_variant=CHAIN[rank],
                     to_variant=CHAIN[rank + 1], reason=reason,
                     detail=f"service {name}")
