"""Last Branch Record: the PMU's taken-branch ring buffer.

Models Intel's LBR facility (paper sec. III.B): a fixed-depth ring of
(source, target) address pairs for retired taken branches — conditional
branches that were taken, unconditional jumps, calls, and returns.
Not-taken conditional branches do not enter the ring.

An executor may skip :meth:`LBRStack.record` and add pairs through
:attr:`LBRStack.append`, the ring's own ``append``; it then settles the
counters once with :meth:`LBRStack.note_appended`.  The decoded engine's
PEBS path does this (``hw/decoded.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Tuple


class LBRStack:
    """Fixed-depth ring buffer of taken-branch records."""

    def __init__(self, depth: int = 16):
        self.depth = depth
        self._ring: Deque[Tuple[int, int]] = deque(maxlen=depth)
        #: Branches recorded over the session (telemetry; cheap local int).
        self.recorded = 0
        #: Entries evicted because the ring was full — how much history each
        #: sample is missing beyond the window.
        self.wraps = 0

    def record(self, source: int, target: int) -> None:
        self.recorded += 1
        if len(self._ring) == self.depth:
            self.wraps += 1
        self._ring.append((source, target))

    @property
    def append(self) -> Callable[[Tuple[int, int]], None]:
        """The ring's own ``append``: adds one ``(source, target)`` pair
        without touching the counters."""
        return self._ring.append

    def note_appended(self, count: int, room: int) -> None:
        """Count ``count`` pairs added through :attr:`append` since the ring
        had ``room`` free slots: every append past that room evicted the
        oldest entry, exactly as :meth:`record` counts it."""
        self.recorded += count
        self.wraps += max(0, count - room)

    def snapshot(self) -> Tuple[Tuple[int, int], ...]:
        """Current contents, oldest first, as the tuple
        :class:`~repro.hw.perf_data.PerfSample` stores without copying."""
        return tuple(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)
