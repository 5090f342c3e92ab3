"""IR instruction set.

The IR is a register machine over 64-bit integers: unbounded virtual registers
(operands spelled as strings beginning with ``%``), integer constants (plain
Python ints), named memory arrays with wrap-around indexing, direct calls,
and structured terminators.  It is deliberately *not* SSA: optimizations in
:mod:`repro.opt` are written against a mutable register machine, which keeps
transformations like tail merge and if-convert (the ones that damage profile
correlation in the paper) straightforward to express.

Two intrinsic instructions mirror the paper's correlation anchors (Fig. 2):

* :class:`PseudoProbe` — CSSPGO's pseudo-instrumentation intrinsic.  Lowers to
  *metadata only* (no machine instruction), blocks cross-block code merge, may
  be freely duplicated.
* :class:`InstrProfIncrement` — traditional instrumentation.  Lowers to a real
  counter-increment machine instruction and acts as a strong optimization
  barrier.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .debug_info import DebugLoc

Operand = Union[str, int]  # "%reg" or immediate constant

BINARY_OPS = frozenset({"add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr"})
CMP_PREDS = frozenset({"eq", "ne", "slt", "sle", "sgt", "sge"})


#: Allocates an instance without running ``__init__`` (see ``Instr.clone``).
_new = object.__new__


def is_reg(operand: Operand) -> bool:
    """True when *operand* names a virtual register rather than a constant."""
    return isinstance(operand, str)


class Instr:
    """Base class of all IR instructions.

    Subclasses expose a uniform interface used by optimization passes:
    ``uses()`` (registers read), ``defined()`` (register written or None),
    ``clone()`` (deep copy), and ``replace_uses(mapping)``.

    ``clone()`` copies slot by slot into an instance made by ``__new__``:
    the source was validated when it was built, so the copy skips the
    constructors, which keeps ``Module.clone`` (the first step of every
    build) cheap.
    """

    __slots__ = ("dloc",)
    opcode = "instr"
    is_terminator = False
    has_side_effects = False

    def __init__(self, dloc: Optional[DebugLoc] = None):
        self.dloc = dloc

    def uses(self) -> List[str]:
        return []

    def defined(self) -> Optional[str]:
        return None

    def clone(self) -> "Instr":
        raise NotImplementedError

    def replace_uses(self, mapping: dict) -> None:
        """Rewrite register operands according to ``mapping`` (old -> new)."""

    def _fmt_loc(self) -> str:
        return f"  ; {self.dloc!r}" if self.dloc is not None else ""


def _map_op(operand: Operand, mapping: dict) -> Operand:
    if isinstance(operand, str):
        return mapping.get(operand, operand)
    return operand


class Assign(Instr):
    """``dst = src`` register/constant copy."""

    __slots__ = ("dst", "src")
    opcode = "mov"

    def __init__(self, dst: str, src: Operand, dloc: Optional[DebugLoc] = None):
        super().__init__(dloc)
        self.dst = dst
        self.src = src

    def uses(self) -> List[str]:
        return [self.src] if is_reg(self.src) else []

    def defined(self) -> Optional[str]:
        return self.dst

    def clone(self) -> "Assign":
        new = _new(Assign)
        new.dloc = self.dloc
        new.dst = self.dst
        new.src = self.src
        return new

    def replace_uses(self, mapping: dict) -> None:
        self.src = _map_op(self.src, mapping)

    def __repr__(self) -> str:
        return f"{self.dst} = mov {self.src}{self._fmt_loc()}"


class BinOp(Instr):
    """``dst = lhs <op> rhs`` for an arithmetic/logical *op* in :data:`BINARY_OPS`."""

    __slots__ = ("op", "dst", "lhs", "rhs")
    opcode = "binop"

    def __init__(self, op: str, dst: str, lhs: Operand, rhs: Operand,
                 dloc: Optional[DebugLoc] = None):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        super().__init__(dloc)
        self.op = op
        self.dst = dst
        self.lhs = lhs
        self.rhs = rhs

    def uses(self) -> List[str]:
        return [x for x in (self.lhs, self.rhs) if is_reg(x)]

    def defined(self) -> Optional[str]:
        return self.dst

    def clone(self) -> "BinOp":
        new = _new(BinOp)
        new.dloc = self.dloc
        new.op = self.op
        new.dst = self.dst
        new.lhs = self.lhs
        new.rhs = self.rhs
        return new

    def replace_uses(self, mapping: dict) -> None:
        self.lhs = _map_op(self.lhs, mapping)
        self.rhs = _map_op(self.rhs, mapping)

    def __repr__(self) -> str:
        return f"{self.dst} = {self.op} {self.lhs}, {self.rhs}{self._fmt_loc()}"


class Cmp(Instr):
    """``dst = lhs <pred> rhs`` producing 0/1, *pred* in :data:`CMP_PREDS`."""

    __slots__ = ("pred", "dst", "lhs", "rhs")
    opcode = "cmp"

    def __init__(self, pred: str, dst: str, lhs: Operand, rhs: Operand,
                 dloc: Optional[DebugLoc] = None):
        if pred not in CMP_PREDS:
            raise ValueError(f"unknown compare predicate {pred!r}")
        super().__init__(dloc)
        self.pred = pred
        self.dst = dst
        self.lhs = lhs
        self.rhs = rhs

    def uses(self) -> List[str]:
        return [x for x in (self.lhs, self.rhs) if is_reg(x)]

    def defined(self) -> Optional[str]:
        return self.dst

    def clone(self) -> "Cmp":
        new = _new(Cmp)
        new.dloc = self.dloc
        new.pred = self.pred
        new.dst = self.dst
        new.lhs = self.lhs
        new.rhs = self.rhs
        return new

    def replace_uses(self, mapping: dict) -> None:
        self.lhs = _map_op(self.lhs, mapping)
        self.rhs = _map_op(self.rhs, mapping)

    def __repr__(self) -> str:
        return f"{self.dst} = cmp {self.pred} {self.lhs}, {self.rhs}{self._fmt_loc()}"


class Select(Instr):
    """``dst = cond ? tval : fval`` — produced by if-conversion."""

    __slots__ = ("dst", "cond", "tval", "fval")
    opcode = "select"

    def __init__(self, dst: str, cond: Operand, tval: Operand, fval: Operand,
                 dloc: Optional[DebugLoc] = None):
        super().__init__(dloc)
        self.dst = dst
        self.cond = cond
        self.tval = tval
        self.fval = fval

    def uses(self) -> List[str]:
        return [x for x in (self.cond, self.tval, self.fval) if is_reg(x)]

    def defined(self) -> Optional[str]:
        return self.dst

    def clone(self) -> "Select":
        new = _new(Select)
        new.dloc = self.dloc
        new.dst = self.dst
        new.cond = self.cond
        new.tval = self.tval
        new.fval = self.fval
        return new

    def replace_uses(self, mapping: dict) -> None:
        self.cond = _map_op(self.cond, mapping)
        self.tval = _map_op(self.tval, mapping)
        self.fval = _map_op(self.fval, mapping)

    def __repr__(self) -> str:
        return f"{self.dst} = select {self.cond}, {self.tval}, {self.fval}{self._fmt_loc()}"


class Load(Instr):
    """``dst = array[index]`` with wrap-around indexing (index taken mod size)."""

    __slots__ = ("dst", "array", "index")
    opcode = "load"
    has_side_effects = False

    def __init__(self, dst: str, array: str, index: Operand,
                 dloc: Optional[DebugLoc] = None):
        super().__init__(dloc)
        self.dst = dst
        self.array = array
        self.index = index

    def uses(self) -> List[str]:
        return [self.index] if is_reg(self.index) else []

    def defined(self) -> Optional[str]:
        return self.dst

    def clone(self) -> "Load":
        new = _new(Load)
        new.dloc = self.dloc
        new.dst = self.dst
        new.array = self.array
        new.index = self.index
        return new

    def replace_uses(self, mapping: dict) -> None:
        self.index = _map_op(self.index, mapping)

    def __repr__(self) -> str:
        return f"{self.dst} = load {self.array}[{self.index}]{self._fmt_loc()}"


class Store(Instr):
    """``array[index] = value`` with wrap-around indexing."""

    __slots__ = ("array", "index", "value")
    opcode = "store"
    has_side_effects = True

    def __init__(self, array: str, index: Operand, value: Operand,
                 dloc: Optional[DebugLoc] = None):
        super().__init__(dloc)
        self.array = array
        self.index = index
        self.value = value

    def uses(self) -> List[str]:
        return [x for x in (self.index, self.value) if is_reg(x)]

    def clone(self) -> "Store":
        new = _new(Store)
        new.dloc = self.dloc
        new.array = self.array
        new.index = self.index
        new.value = self.value
        return new

    def replace_uses(self, mapping: dict) -> None:
        self.index = _map_op(self.index, mapping)
        self.value = _map_op(self.value, mapping)

    def __repr__(self) -> str:
        return f"store {self.array}[{self.index}] = {self.value}{self._fmt_loc()}"


class Call(Instr):
    """``dst = call callee(args...)`` — direct call; ``dst`` may be None.

    ``probe_id`` is assigned by pseudo-probe insertion: call sites receive
    their own probe ids (distinct from block probes) so that inline contexts
    can be spelled as chains of ``(caller_guid, callsite_probe_id)`` exactly
    as LLVM's CSSPGO encodes them.
    """

    __slots__ = ("dst", "callee", "args", "probe_id", "lexical_guid",
                 "inline_probe_stack")
    opcode = "call"
    has_side_effects = True

    def __init__(self, dst: Optional[str], callee: str, args: Sequence[Operand],
                 dloc: Optional[DebugLoc] = None, probe_id: Optional[int] = None,
                 lexical_guid: Optional[int] = None,
                 inline_probe_stack: Tuple[Tuple[int, int], ...] = ()):
        super().__init__(dloc)
        self.dst = dst
        self.callee = callee
        self.args = list(args)
        # Probe identity of this call site: ``probe_id`` in the namespace of
        # ``lexical_guid`` (the function the call lexically belongs to), under
        # the inline chain ``inline_probe_stack`` (outermost-first
        # (guid, callsite_probe_id) pairs accumulated by the inliner).
        self.probe_id = probe_id
        self.lexical_guid = lexical_guid
        self.inline_probe_stack = tuple(inline_probe_stack)

    def probe_context(self) -> Tuple[Tuple[int, int], ...]:
        """Full probe-context chain identifying this call site, or () if the
        module is not probe-instrumented."""
        if self.probe_id is None or self.lexical_guid is None:
            return ()
        return self.inline_probe_stack + ((self.lexical_guid, self.probe_id),)

    def uses(self) -> List[str]:
        return [a for a in self.args if is_reg(a)]

    def defined(self) -> Optional[str]:
        return self.dst

    def clone(self) -> "Call":
        new = _new(Call)
        new.dloc = self.dloc
        new.dst = self.dst
        new.callee = self.callee
        new.args = list(self.args)
        new.probe_id = self.probe_id
        new.lexical_guid = self.lexical_guid
        new.inline_probe_stack = self.inline_probe_stack
        return new

    def replace_uses(self, mapping: dict) -> None:
        self.args = [_map_op(a, mapping) for a in self.args]

    def __repr__(self) -> str:
        lhs = f"{self.dst} = " if self.dst else ""
        return f"{lhs}call {self.callee}({', '.join(map(str, self.args))}){self._fmt_loc()}"


class Br(Instr):
    """Unconditional branch to block ``target``."""

    __slots__ = ("target",)
    opcode = "br"
    is_terminator = True

    def __init__(self, target: str, dloc: Optional[DebugLoc] = None):
        super().__init__(dloc)
        self.target = target

    def clone(self) -> "Br":
        new = _new(Br)
        new.dloc = self.dloc
        new.target = self.target
        return new

    def __repr__(self) -> str:
        return f"br {self.target}{self._fmt_loc()}"


class CondBr(Instr):
    """Conditional branch: to ``true_target`` when ``cond`` is nonzero."""

    __slots__ = ("cond", "true_target", "false_target")
    opcode = "condbr"
    is_terminator = True

    def __init__(self, cond: Operand, true_target: str, false_target: str,
                 dloc: Optional[DebugLoc] = None):
        super().__init__(dloc)
        self.cond = cond
        self.true_target = true_target
        self.false_target = false_target

    def uses(self) -> List[str]:
        return [self.cond] if is_reg(self.cond) else []

    def clone(self) -> "CondBr":
        new = _new(CondBr)
        new.dloc = self.dloc
        new.cond = self.cond
        new.true_target = self.true_target
        new.false_target = self.false_target
        return new

    def replace_uses(self, mapping: dict) -> None:
        self.cond = _map_op(self.cond, mapping)

    def __repr__(self) -> str:
        return f"br {self.cond}, {self.true_target}, {self.false_target}{self._fmt_loc()}"


class Ret(Instr):
    """Return ``value`` (may be a constant, register, or None for void)."""

    __slots__ = ("value",)
    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Operand] = None, dloc: Optional[DebugLoc] = None):
        super().__init__(dloc)
        self.value = value

    def uses(self) -> List[str]:
        return [self.value] if is_reg(self.value) else []

    def clone(self) -> "Ret":
        new = _new(Ret)
        new.dloc = self.dloc
        new.value = self.value
        return new

    def replace_uses(self, mapping: dict) -> None:
        if self.value is not None:
            self.value = _map_op(self.value, mapping)

    def __repr__(self) -> str:
        return f"ret {self.value}{self._fmt_loc()}"


class PseudoProbe(Instr):
    """CSSPGO pseudo-instrumentation intrinsic (paper sec. III.A).

    ``guid`` identifies the lexical function the probe instruments, ``probe_id``
    the basic block within it.  ``inline_stack`` mirrors DebugLoc inline stacks
    but carries *probe* call-site ids instead of lines: a tuple of
    ``(caller_guid, callsite_probe_id)`` outermost-first, appended to as the
    inliner clones the probe into callers.  The probe never lowers to a machine
    instruction; codegen materializes it as metadata attached to the address of
    the next real instruction.
    """

    __slots__ = ("guid", "probe_id", "inline_stack", "dangling")
    opcode = "pseudoprobe"
    has_side_effects = True  # models "memory intrinsic" semantics: not DCE-able

    def __init__(self, guid: int, probe_id: int,
                 inline_stack: Tuple[Tuple[int, int], ...] = (),
                 dangling: bool = False,
                 dloc: Optional[DebugLoc] = None):
        super().__init__(dloc)
        self.guid = guid
        self.probe_id = probe_id
        self.inline_stack = tuple(inline_stack)
        self.dangling = dangling

    def clone(self) -> "PseudoProbe":
        new = _new(PseudoProbe)
        new.dloc = self.dloc
        new.guid = self.guid
        new.probe_id = self.probe_id
        new.inline_stack = self.inline_stack
        new.dangling = self.dangling
        return new

    def probe_key(self) -> tuple:
        return (self.guid, self.probe_id, self.inline_stack)

    def __repr__(self) -> str:
        stack = "".join(f"@{g:x}:{i}" for g, i in self.inline_stack)
        tag = " dangling" if self.dangling else ""
        return f"pseudoprobe {self.guid:x}:{self.probe_id}{stack}{tag}{self._fmt_loc()}"


class InstrProfIncrement(Instr):
    """Traditional instrumentation intrinsic: increments counter ``counter_id``
    of ``func_name`` at run time.  Lowers to a real machine instruction and is
    a strong barrier: blocks in which distinct counters are incremented are
    never merged, and the intrinsic is never duplicated or hoisted.
    """

    __slots__ = ("func_name", "counter_id")
    opcode = "instrprof"
    has_side_effects = True

    def __init__(self, func_name: str, counter_id: int, dloc: Optional[DebugLoc] = None):
        super().__init__(dloc)
        self.func_name = func_name
        self.counter_id = counter_id

    def clone(self) -> "InstrProfIncrement":
        new = _new(InstrProfIncrement)
        new.dloc = self.dloc
        new.func_name = self.func_name
        new.counter_id = self.counter_id
        return new

    def __repr__(self) -> str:
        return f"instrprof.increment {self.func_name}#{self.counter_id}{self._fmt_loc()}"


TERMINATORS = (Br, CondBr, Ret)
PROBE_LIKE = (PseudoProbe, InstrProfIncrement)


def is_real(instr: Instr) -> bool:
    """True for instructions that lower to machine code (pseudo-probes do not)."""
    return not isinstance(instr, PseudoProbe)
