"""IR substrate: instructions, blocks, functions, modules, analyses.

This package models the compiler-internal program representation the paper's
techniques operate on.  See DESIGN.md sec. 2 for how it maps to LLVM.
"""

from .builder import FunctionBuilder, ModuleBuilder
from .cfg import (DominatorTree, Loop, back_edges, is_reducible, loop_exits,
                  natural_loops, predecessors_map, reachable_blocks,
                  reverse_post_order, successors_map)
from .checksum import cfg_checksum
from .debug_info import DebugLoc, InlineSite
from .function import BasicBlock, Function, Module, function_guid
from .instructions import (BINARY_OPS, CMP_PREDS, Assign, BinOp, Br, Call,
                           Cmp, CondBr, Instr, InstrProfIncrement, Load,
                           Operand, PseudoProbe, Ret, Select, Store, is_real,
                           is_reg)
from .interpreter import (ExecutionLimitExceeded, IRExecutionResult,
                          IRInterpreter)
from .printer import print_function, print_module
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "Assign", "BINARY_OPS", "BasicBlock", "BinOp", "Br", "CMP_PREDS", "Call",
    "Cmp", "CondBr", "DebugLoc", "DominatorTree", "ExecutionLimitExceeded",
    "Function", "FunctionBuilder", "IRExecutionResult", "IRInterpreter",
    "InlineSite", "Instr", "InstrProfIncrement", "Load", "Loop", "Module",
    "ModuleBuilder", "Operand", "PseudoProbe", "Ret", "Select", "Store",
    "VerificationError", "back_edges", "cfg_checksum", "function_guid",
    "is_real", "is_reducible", "is_reg", "loop_exits", "natural_loops",
    "predecessors_map", "print_function", "print_module", "reachable_blocks",
    "reverse_post_order", "successors_map", "verify_function",
    "verify_module",
]
