"""Fleet-level fault plane: seeded draws for operational failures.

Data-plane injectors corrupt bytes; the five ``fleet``-kind injectors
(:mod:`repro.faults.injectors`) are *decision points* — a worker crashes,
a worker hangs, a collection runs slow, a collection result vanishes, a
generation timestamp skews.  The :class:`FaultPlane` owns those decisions:
one :class:`random.Random` stream per injector (seeded by
:meth:`~repro.faults.spec.FaultSpec.rng_for`, so streams are independent
of spec entry order and of each other), drawn in the orchestrator's fixed
simulation order.  Same spec + same fleet seed = the same failures on the
same ticks, which is what makes a 500-tick fault storm replayable.

Every firing is counted; :meth:`FaultPlane.report` writes the per-injector
ground truth as ``faults_injected`` events at end of run — the exact
accounting the fault-smoke CI job reconciles against.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from .. import obs
from ..faults import FaultSpec


class FaultPlane:
    """Deterministic yes/no (and how-much) draws for fleet failures.

    Built from the ``fleet``-kind entries of a :class:`FaultSpec`; with no
    spec (or no fleet entries) every draw is a cheap ``False`` and the
    plane is inert.
    """

    def __init__(self, spec: Optional[FaultSpec] = None):
        self.spec = spec
        self._intensity: Dict[str, float] = {}
        self._rng: Dict[str, random.Random] = {}
        #: injector name -> times it actually fired (ground truth).
        self.fired: Dict[str, int] = {}
        if spec is not None:
            for name, intensity in spec.entries_of_kind("fleet"):
                self._intensity[name] = intensity
                self._rng[name] = spec.rng_for(name)

    def _fires(self, name: str) -> bool:
        intensity = self._intensity.get(name)
        if not intensity:
            return False
        if self._rng[name].random() >= intensity:
            return False
        self.fired[name] = self.fired.get(name, 0) + 1
        return True

    # -- decision points, one per injector ---------------------------------
    def worker_crash(self) -> bool:
        """Drawn once per busy worker per tick."""
        return self._fires("worker_crash")

    def worker_hang(self) -> bool:
        """Drawn once per busy (not already hung) worker per tick."""
        return self._fires("worker_hang")

    def slow_factor(self, maximum: int = 4) -> int:
        """Collection-duration multiplier, drawn once per task dispatch
        (1 = on time; >= 2 models a loaded host / throttled PMU)."""
        if not self._fires("slow_collection"):
            return 1
        return self._rng["slow_collection"].randint(2, max(2, maximum))

    def drop_shard(self) -> bool:
        """Drawn once per profile generation: a collection result lost in
        flight fails the whole attempt."""
        return self._fires("drop_shard")

    def clock_skew(self, window: int) -> int:
        """Ticks to pre-age a new generation by, drawn once per ingested
        generation (0 = collection-host clock agrees with the fleet's).
        Skew can exceed ``window``, making a brand-new profile look
        already-expired — the NTP-drift failure the freshness logic must
        absorb."""
        if not self._fires("clock_skew"):
            return 0
        return self._rng["clock_skew"].randint(1, max(1, 2 * window))

    # -- accounting ---------------------------------------------------------
    def total_fired(self) -> int:
        return sum(self.fired.values())

    def report(self) -> int:
        """Emit one ``faults_injected`` event per injector that fired;
        returns the total firing count."""
        for name in sorted(self.fired):
            obs.emit("faults_injected", kind="fleet",
                     count=self.fired[name], injector=name)
        return self.total_fired()

    def __repr__(self) -> str:
        body = ",".join(f"{name}:{self._intensity[name]:g}"
                        for name in sorted(self._intensity))
        return f"<FaultPlane {body or 'inert'}>"
