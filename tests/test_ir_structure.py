"""Unit tests for blocks, functions, modules, builder, verifier, printer."""

import gc

import pytest

from repro.ir import (BasicBlock, Br, Function, Module, ModuleBuilder, Ret,
                      VerificationError, function_guid, print_function,
                      print_module, verify_function, verify_module)
from repro.probes import insert_pseudo_probes
from tests.conftest import build_call_module, build_diamond_module


def _probed_module() -> Module:
    """Locals, globals, probes, a call and a GUID no name hashes to."""
    mb = ModuleBuilder("m")
    mb.global_array("@g", 8)
    f = mb.function("helper", ["%v"])
    f.local_array("buf", 4)
    f.block("entry").store("buf", 1, "%v").load("%w", "buf", 1).ret("%w")
    f = mb.function("main", ["%x"])
    f.block("entry").cmp("slt", "%c", "%x", 3).condbr("%c", "then", "join")
    f.block("then").call("%x", "helper", ["%x"]).store("@g", 0, "%x") \
        .br("join")
    f.block("join").ret("%x")
    module = mb.build()
    insert_pseudo_probes(module)
    module.function("helper").guid = 12345
    module.function("main").entry.count = 7.0
    module.function("main").entry_count = 7.0
    return module


class TestFunctionStructure:
    def test_entry_is_first_block(self, loop_module):
        assert loop_module.function("main").entry.label == "entry"

    def test_successors(self, loop_module):
        fn = loop_module.function("main")
        assert fn.block("loop").successors() == ["body", "exit"]
        assert fn.block("body").successors() == ["loop"]
        assert fn.block("exit").successors() == []

    def test_duplicate_block_label_rejected(self):
        fn = Function("f")
        fn.add_block(BasicBlock("a", [Ret(0)]))
        with pytest.raises(ValueError):
            fn.add_block(BasicBlock("a", [Ret(0)]))

    def test_fresh_reg_avoids_existing(self, loop_module):
        fn = loop_module.function("main")
        fresh = fn.fresh_reg("i")
        defined = {i.defined() for i in fn.instructions()}
        assert fresh not in defined and fresh not in fn.params

    def test_fresh_label_avoids_existing(self, loop_module):
        fn = loop_module.function("main")
        assert not fn.has_block(fn.fresh_label("loop"))

    def test_clone_is_independent(self, loop_module):
        clone = loop_module.clone()
        clone.function("main").block("body").instrs.pop(0)
        original = loop_module.function("main").block("body")
        assert len(original.instrs) == 3

    def test_clone_keeps_identity_and_shares_nothing(self):
        module = _probed_module()
        clone = module.clone()
        assert clone.probe_guid_names == module.probe_guid_names
        assert clone.probe_guid_checksums == module.probe_guid_checksums
        assert clone.global_arrays == module.global_arrays
        for attr in ("functions", "global_arrays", "probe_guid_names",
                     "probe_guid_checksums"):
            assert getattr(clone, attr) is not getattr(module, attr)
        assert list(clone.functions) == list(module.functions)
        fresh = set(vars(Function("f")))
        for name, fn in module.functions.items():
            copy = clone.function(name)
            assert copy is not fn and set(vars(copy)) == fresh
            assert copy.guid == fn.guid
            assert copy.local_arrays == fn.local_arrays
            assert copy.local_arrays is not fn.local_arrays
            assert copy.params == fn.params and copy.params is not fn.params
            assert (copy.entry_count, copy.probe_checksum) == \
                (fn.entry_count, fn.probe_checksum)
            assert [b.label for b in copy.blocks] == \
                [b.label for b in fn.blocks]
            for block, original in zip(copy.blocks, fn.blocks):
                assert copy.block(block.label) is block
                assert block is not original
                assert block.instrs is not original.instrs
                assert (block.count, block.is_cold) == \
                    (original.count, original.is_cold)
                assert list(map(repr, block.instrs)) == \
                    list(map(repr, original.instrs))
                for instr, source in zip(block.instrs, original.instrs):
                    assert instr is not source
        assert clone.function("helper").guid == 12345
        assert print_module(clone) == print_module(module)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_clone_restores_collector_setting(self, enabled, monkeypatch):
        seen = []
        real = Function.clone

        def spy(fn, *args):
            seen.append(gc.isenabled())
            return real(fn, *args)

        def set_collector(on: bool) -> None:
            if on:
                gc.enable()
            else:
                gc.disable()

        monkeypatch.setattr(Function, "clone", spy)
        was = gc.isenabled()
        try:
            set_collector(enabled)
            _probed_module().clone()
            assert gc.isenabled() is enabled
        finally:
            set_collector(was)
        assert seen == [False, False]  # paused for the copy

    def test_guid_is_stable_and_distinct(self):
        assert function_guid("foo") == function_guid("foo")
        assert function_guid("foo") != function_guid("bar")

    def test_callees(self):
        module = build_call_module()
        assert module.function("main").callees() == ["helper"]


class TestVerifier:
    def test_valid_module_passes(self, loop_module):
        verify_module(loop_module)

    def test_missing_terminator_caught(self):
        fn = Function("f")
        fn.add_block(BasicBlock("entry", []))
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_dangling_branch_target_caught(self):
        fn = Function("f")
        fn.add_block(BasicBlock("entry", [Br("nowhere")]))
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_unknown_callee_caught(self):
        module = build_call_module()
        main = module.function("main")
        main.block("entry").instrs[0].callee = "ghost"
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_missing_entry_function_caught(self):
        module = Module("m")
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_terminator_mid_block_caught(self):
        fn = Function("f")
        fn.add_block(BasicBlock("entry", [Ret(0), Ret(0)]))
        with pytest.raises(VerificationError):
            verify_function(fn)


class TestPrinter:
    def test_print_function_contains_blocks(self, loop_module):
        text = print_function(loop_module.function("main"))
        for label in ("entry", "loop", "body", "exit"):
            assert f"{label}:" in text

    def test_print_module_contains_all_functions(self):
        module = build_call_module()
        text = print_module(module)
        assert "define main" in text and "define helper" in text


class TestBuilder:
    def test_lines_auto_increment(self):
        module = build_diamond_module()
        lines = [i.dloc.line for i in module.function("main").instructions()
                 if i.dloc is not None]
        assert lines == sorted(lines)
        assert len(set(lines)) == len(lines)

    def test_local_and_global_arrays(self):
        mb = ModuleBuilder("m")
        mb.global_array("@g", 8)
        f = mb.function("main", ["%x"])
        f.local_array("buf", 4)
        f.block("entry").store("buf", 0, "%x").load("%y", "buf", 0) \
            .store("@g", 1, "%y").ret("%y")
        module = mb.build()
        verify_module(module)
        assert module.function("main").local_arrays == {"buf": 4}
