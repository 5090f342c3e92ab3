"""PMU sampling: period counting, LBR snapshots, synchronized stack samples,
and the skid behaviour PEBS fixes.

The paper (sec. III.B) reconstructs calling contexts from *synchronized* LBR
and stack samples and notes that without PEBS "stack sample can sometimes lag
behind LBR sample by one frame".  We model that skid directly: in non-PEBS
mode the stack snapshot delivered with a sample is the stack as it was
*before* the most recent control transfer retired, so whenever the last LBR
entry is a call or return the stack is off by one frame.  With ``pebs=True``
the snapshot is taken at the sampled instruction exactly.

Overhead discipline (the paper's always-on pitch, sec. IV): sampling work is
proportional to *samples*, not to retired branches.

* With ``pebs=True`` (the default) :meth:`PMU.on_branch` only records the LBR
  entry — the lagged snapshot would never be consumed, so it is never taken.
* With ``pebs=False`` the pre-transfer stack must still be observable at
  sample time, but executors can register an O(1) ``lagged_capture`` hook
  (e.g. a cons-list reference into an incrementally maintained return stack)
  plus a ``lagged_materialize`` hook; the expensive materialization then runs
  at most once per sampling window instead of once per taken branch.
  Executors without such hooks fall back to the eager full walk.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from .. import telemetry
from .lbr import LBRStack
from .perf_data import PerfData, PerfSample


class PMUConfig:
    """Sampling configuration (defaults mirror the paper's setup)."""

    def __init__(self, period: int = 97, lbr_depth: int = 16,
                 pebs: bool = True, jitter_seed: int = 12345):
        # A prime period avoids phase-locking with loop bodies, like the
        # randomization production profilers apply.
        self.period = period
        self.lbr_depth = lbr_depth
        self.pebs = pebs
        self.jitter_seed = jitter_seed


class PMU:
    """Performance monitoring unit attached to the executor.

    The executor calls :meth:`on_branch` for every retired taken branch and
    :meth:`on_retire` for every retired instruction; the PMU fires a sample
    every ``period`` instructions (with a little seeded jitter).
    """

    def __init__(self, config: PMUConfig,
                 stack_walker: Callable[[], List[int]],
                 lagged_capture: Optional[Callable[[], object]] = None,
                 lagged_materialize: Optional[
                     Callable[[object], List[int]]] = None):
        self.config = config
        self.lbr = LBRStack(config.lbr_depth)
        self.data = PerfData(config.period, config.lbr_depth, config.pebs)
        self._stack_walker = stack_walker
        self._lagged_capture = lagged_capture
        self._lagged_materialize = lagged_materialize
        self._rng = random.Random(config.jitter_seed)
        # Jitter bounds, computed once for ``_next_period``.
        self._period = config.period
        self._jitter_n = max(1, config.period // 8) + 1
        self._jitter_bits = self._jitter_n.bit_length()
        self._getrandbits = self._rng.getrandbits
        self._until_sample = self._next_period()
        #: Opaque pre-transfer stack token from the most recent control
        #: transfer — what a skidding (non-PEBS) sample would deliver.  With
        #: no capture hook this is the materialized list itself.
        self._lagged_token: Optional[object] = None
        #: Samples delivered with the lagged (skid-prone) snapshot.
        self._skid_samples = 0
        if config.pebs:
            # PEBS snapshots are taken at the sampled instruction, so the
            # lagged token is never consumed: specialize the per-branch hook
            # to skip capture entirely (the hot-loop overhead fix).
            self.on_branch = self._on_branch_pebs

    def _next_period(self) -> int:
        """``period + randint(0, max(1, period // 8))``, draw for draw.

        ``randint(0, b)`` is ``randrange(b + 1)``, which CPython draws as
        ``_randbelow_with_getrandbits(n)`` with ``n = b + 1``: take
        ``n.bit_length()`` random bits and redraw while the value is
        ``>= n``.  Doing that here on the bounds computed in ``__init__``
        consumes the generator identically at a fraction of the calls.
        """
        n = self._jitter_n
        r = self._getrandbits(self._jitter_bits)
        while r >= n:
            r = self._getrandbits(self._jitter_bits)
        return self._period + r

    def bind_executor(self, stack_walker: Callable[[], List[int]],
                      lagged_capture: Optional[Callable[[], object]] = None,
                      lagged_materialize: Optional[
                          Callable[[object], List[int]]] = None) -> None:
        """Late-bind the executor's stack access hooks (see ``make_pmu``)."""
        self._stack_walker = stack_walker
        self._lagged_capture = lagged_capture
        self._lagged_materialize = lagged_materialize

    def _on_branch_pebs(self, source: int, target: int) -> None:
        self.lbr.record(source, target)

    def on_branch(self, source: int, target: int) -> None:
        # Capture the pre-transfer stack for skid modeling (O(1) when the
        # executor registered a capture hook), then record.
        capture = self._lagged_capture
        self._lagged_token = (capture() if capture is not None
                              else self._stack_walker())
        self.lbr.record(source, target)

    def on_retire(self, ip: int) -> None:
        self._until_sample -= 1
        if self._until_sample > 0:
            return
        self._until_sample = self._next_period()
        if self.config.pebs:
            stack = self._stack_walker()
        else:
            token = self._lagged_token
            if token:
                materialize = self._lagged_materialize
                stack = (materialize(token) if materialize is not None
                         else token)
                self._skid_samples += 1
            else:
                stack = self._stack_walker()
        self.data.add(PerfSample(self.lbr.snapshot(), stack, ip))

    def finish(self, instructions_retired: int) -> PerfData:
        self.data.instructions_retired = instructions_retired
        if telemetry.enabled():
            telemetry.count("hw.pmu", "samples_taken", len(self.data.samples))
            telemetry.count("hw.pmu", "branches_recorded", self.lbr.recorded)
            telemetry.count("hw.pmu", "lbr_ring_wraps", self.lbr.wraps)
            telemetry.count("hw.pmu", "skid_stack_samples", self._skid_samples)
        return self.data
