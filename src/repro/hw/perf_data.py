"""Sample containers: what ``perf record`` would have produced.

A :class:`PerfSample` is one PMU interrupt's payload: the LBR snapshot (16 or
32 source/target pairs of the most recent taken branches, oldest first) plus
the synchronized call-stack sample (leaf first), exactly the pairing the
paper's profiler consumes (Fig. 5, ``perf record -g --call-graph fp -e
br_inst_retired.near_taken:upp``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..profile.errors import BinaryMismatchError


class PerfSample:
    """One synchronized LBR + call-stack sample."""

    __slots__ = ("lbr", "stack", "ip")

    def __init__(self, lbr: Sequence[Tuple[int, int]], stack: Sequence[int],
                 ip: int):
        #: Taken-branch (source, target) pairs, oldest first.
        self.lbr: Tuple[Tuple[int, int], ...] = tuple(lbr)
        #: Call-stack addresses, leaf first (stack[0] is the sampled IP's
        #: frame; deeper entries are return addresses in callers).
        self.stack: Tuple[int, ...] = tuple(stack)
        #: The sampled instruction pointer.
        self.ip = ip


class AggregatedSample:
    """One unique ``(lbr, stack)`` payload and how many times it was seen.

    ``sample`` is the first :class:`PerfSample` that carried the payload;
    unwinding only reads ``lbr``/``stack``, so any representative works.
    """

    __slots__ = ("sample", "count")

    def __init__(self, sample: PerfSample):
        self.sample = sample
        self.count = 0

    def __repr__(self) -> str:
        return f"<AggregatedSample x{self.count}>"


class PerfData:
    """A full profiling session: all samples plus collection metadata."""

    def __init__(self, period: int, lbr_depth: int, pebs: bool):
        self.period = period
        self.lbr_depth = lbr_depth
        self.pebs = pebs
        self.samples: List[PerfSample] = []
        self.instructions_retired = 0
        #: Identity of the binary the samples were collected on (see
        #: :meth:`repro.codegen.binary.Binary.identity`); ``None`` when the
        #: session was never bound to a binary (hand-built test data).
        self.binary_id: Optional[str] = None
        self._aggregated: Optional[List[AggregatedSample]] = None

    def add(self, sample: PerfSample) -> None:
        self.samples.append(sample)
        self._aggregated = None

    def extend(self, other: "PerfData", site: str = "unspecified") -> None:
        """Append another session's samples (multi-iteration merge).

        Merging is only meaningful between sessions collected on the *same*
        binary: addresses are build-specific, so mixing runs of different
        builds silently produces garbage profiles.  When both sessions carry
        a binary identity and they differ, the merge is refused with
        :class:`~repro.profile.errors.BinaryMismatchError` naming both
        identities and ``site`` (the caller's merge point), the
        ``pgo.merge.rejected`` counter is bumped, and a ``merge_rejected``
        event is emitted — rejections show up in dashboards and SLO logs,
        not just in whoever happens to catch the exception.
        """
        if (self.binary_id is not None and other.binary_id is not None
                and self.binary_id != other.binary_id):
            # Imported lazily: hw is a leaf layer and must not pull the
            # obs/telemetry stack in at module-import time.
            from .. import obs, telemetry
            telemetry.count("pgo.merge", "rejected")
            obs.emit("merge_rejected", site=site, ours=self.binary_id,
                     theirs=other.binary_id)
            raise BinaryMismatchError(
                f"cannot merge perf data from binary {other.binary_id} "
                f"into session from binary {self.binary_id} "
                f"(merge site: {site})")
        if self.binary_id is None:
            self.binary_id = other.binary_id
        self.samples.extend(other.samples)
        self._aggregated = None

    def aggregated(self) -> List["AggregatedSample"]:
        """Samples deduplicated by ``(lbr, stack)`` payload.

        Loopy workloads are highly repetitive: a steady-state loop produces
        the same LBR window and stack over and over, so profile generation
        can unwind each unique payload once and multiply by its count
        (llvm-profgen's pre-aggregated perf input).  Entries keep the
        first-occurrence order of their payloads, which makes the
        aggregated pass order-equivalent to the per-sample one.  The view
        is cached and invalidated by :meth:`add`.
        """
        if self._aggregated is None:
            index: dict = {}
            out: List[AggregatedSample] = []
            for sample in self.samples:
                key = (sample.lbr, sample.stack)
                entry = index.get(key)
                if entry is None:
                    entry = AggregatedSample(sample)
                    index[key] = entry
                    out.append(entry)
                entry.count += 1
            self._aggregated = out
        return self._aggregated

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return (f"<PerfData {len(self.samples)} samples, period={self.period}, "
                f"pebs={self.pebs}>")
