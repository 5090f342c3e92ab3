"""Basic blocks, functions and modules.

A :class:`Function` is an ordered list of :class:`BasicBlock`; the first block
is the entry.  Block order is meaningful — it is the layout order codegen uses
until the Ext-TSP layout pass reorders it.  A :class:`Module` is a set of
functions plus global arrays, mirroring one linked program.
"""

from __future__ import annotations

import gc
import hashlib
from typing import Dict, Iterable, Iterator, List, Optional

from .instructions import (Br, Call, CondBr, Instr, PseudoProbe, Ret,
                           TERMINATORS)


def function_guid(name: str) -> int:
    """Stable 64-bit GUID for a function name (MD5-based, like LLVM's)."""
    digest = hashlib.md5(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class BasicBlock:
    """A labelled straight-line sequence of instructions ending in a terminator."""

    __slots__ = ("label", "instrs", "count", "is_cold")

    def __init__(self, label: str, instrs: Optional[List[Instr]] = None):
        self.label = label
        self.instrs = instrs if instrs is not None else []
        #: Profile-annotated execution count (None = no profile).
        self.count: Optional[float] = None
        #: Set by the hot/cold splitter; codegen places cold blocks far away.
        self.is_cold = False

    @property
    def terminator(self) -> Instr:
        if not self.instrs or not self.instrs[-1].is_terminator:
            raise ValueError(f"block {self.label} has no terminator")
        return self.instrs[-1]

    def successors(self) -> List[str]:
        term = self.instrs[-1] if self.instrs else None
        if isinstance(term, Br):
            return [term.target]
        if isinstance(term, CondBr):
            if term.true_target == term.false_target:
                return [term.true_target]
            return [term.true_target, term.false_target]
        return []

    def body(self) -> List[Instr]:
        """Instructions excluding the terminator."""
        return self.instrs[:-1] if self.instrs and self.instrs[-1].is_terminator else list(self.instrs)

    def probes(self) -> List[PseudoProbe]:
        return [i for i in self.instrs if isinstance(i, PseudoProbe)]

    def calls(self) -> List[Call]:
        return [i for i in self.instrs if isinstance(i, Call)]

    def clone(self, new_label: Optional[str] = None) -> "BasicBlock":
        bb = BasicBlock.__new__(BasicBlock)
        bb.label = new_label or self.label
        bb.instrs = [i.clone() for i in self.instrs]
        bb.count = self.count
        bb.is_cold = self.is_cold
        return bb

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.instrs)} instrs)>"


class Function:
    """An IR function: parameters, local arrays, and an ordered block list."""

    def __init__(self, name: str, params: Optional[List[str]] = None):
        self.name = name
        self.guid = function_guid(name)
        self.params: List[str] = list(params or [])
        self.blocks: List[BasicBlock] = []
        self._by_label: Dict[str, BasicBlock] = {}
        #: Local arrays: name -> size in elements.
        self.local_arrays: Dict[str, int] = {}
        #: Entry count from profile annotation (None = no profile).
        self.entry_count: Optional[float] = None
        #: CFG checksum persisted at probe-insertion time (see ir.checksum).
        self.probe_checksum: Optional[int] = None
        #: Marks functions the hot/cold splitter produced.
        self.is_cold_split = False
        #: Inlining barrier (noinline attribute / cross-module boundary).
        self.noinline = False

    # -- block management -------------------------------------------------
    def add_block(self, block: BasicBlock, after: Optional[str] = None) -> BasicBlock:
        if block.label in self._by_label:
            raise ValueError(f"duplicate block label {block.label} in {self.name}")
        if after is None:
            self.blocks.append(block)
        else:
            idx = self.blocks.index(self._by_label[after])
            self.blocks.insert(idx + 1, block)
        self._by_label[block.label] = block
        return block

    def remove_block(self, label: str) -> None:
        block = self._by_label.pop(label)
        self.blocks.remove(block)

    def block(self, label: str) -> BasicBlock:
        return self._by_label[label]

    def has_block(self, label: str) -> bool:
        return label in self._by_label

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def reindex(self) -> None:
        """Rebuild the label map after in-place relabeling or reordering."""
        self._by_label = {b.label: b for b in self.blocks}

    def fresh_label(self, hint: str = "bb") -> str:
        i = len(self.blocks)
        while f"{hint}{i}" in self._by_label:
            i += 1
        return f"{hint}{i}"

    # -- queries -----------------------------------------------------------
    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def callees(self) -> List[str]:
        return [i.callee for i in self.instructions() if isinstance(i, Call)]

    def fresh_reg(self, hint: str = "t") -> str:
        taken = set()
        for instr in self.instructions():
            defined = instr.defined()
            if defined:
                taken.add(defined)
        taken.update(self.params)
        i = 0
        while f"%{hint}{i}" in taken:
            i += 1
        return f"%{hint}{i}"

    def clone(self, new_name: Optional[str] = None) -> "Function":
        """Deep copy, built field by field: the source's labels are already
        unique, and its GUID carries over unless the copy is renamed."""
        fn = Function.__new__(Function)
        fn.name = new_name or self.name
        fn.guid = self.guid if new_name is None else function_guid(new_name)
        fn.params = list(self.params)
        fn.blocks = [block.clone() for block in self.blocks]
        fn._by_label = {block.label: block for block in fn.blocks}
        fn.local_arrays = dict(self.local_arrays)
        fn.entry_count = self.entry_count
        fn.probe_checksum = self.probe_checksum
        fn.is_cold_split = self.is_cold_split
        fn.noinline = self.noinline
        return fn

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A linked program: functions plus global arrays."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        #: Global arrays: name -> size in elements.
        self.global_arrays: Dict[str, int] = {}
        self.entry_function = "main"
        #: Set by profile annotation (repro.profile.summary.ProfileSummary).
        self.profile_summary = None
        #: GUID -> name and GUID -> CFG checksum recorded at pseudo-probe
        #: insertion time.  Kept module-level so the probe metadata section
        #: can resolve inlined-away functions even after dead-function
        #: elimination removed their standalone copies.
        self.probe_guid_names: Dict[int, str] = {}
        self.probe_guid_checksums: Dict[int, int] = {}

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name}")
        self.functions[fn.name] = fn
        return fn

    def function(self, name: str) -> Function:
        return self.functions[name]

    def has_function(self, name: str) -> bool:
        return name in self.functions

    def guid_map(self) -> Dict[int, str]:
        return {fn.guid: name for name, fn in self.functions.items()}

    def clone(self) -> "Module":
        """Deep copy of every function; ``profile_summary`` is shared.

        The cyclic collector is paused for the copy, and the caller's
        setting restored after it: every object the copy allocates
        survives, so each collection it would trigger is wasted work.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            mod = Module(self.name)
            mod.global_arrays = dict(self.global_arrays)
            mod.entry_function = self.entry_function
            mod.profile_summary = self.profile_summary
            mod.probe_guid_names = dict(self.probe_guid_names)
            mod.probe_guid_checksums = dict(self.probe_guid_checksums)
            mod.functions = {fn.name: fn.clone()
                             for fn in self.functions.values()}
        finally:
            if enabled:
                gc.enable()
        return mod

    def __repr__(self) -> str:
        return f"<Module {self.name} ({len(self.functions)} functions)>"
