"""Unit tests for the IR instruction classes."""

import pytest

from repro.ir import (Assign, BinOp, Br, Call, Cmp, CondBr, DebugLoc,
                      InlineSite, InstrProfIncrement, Instr, Load,
                      PseudoProbe, Ret, Select, Store, is_real, is_reg)


class TestOperandHelpers:
    def test_register_operands_are_strings(self):
        assert is_reg("%x")
        assert not is_reg(42)

    def test_probe_is_not_real(self):
        assert not is_real(PseudoProbe(1, 1))
        assert is_real(BinOp("add", "%d", 1, 2))


class TestUsesAndDefs:
    def test_binop_uses_registers_only(self):
        instr = BinOp("add", "%d", "%a", 7)
        assert instr.uses() == ["%a"]
        assert instr.defined() == "%d"

    def test_cmp_rejects_unknown_predicate(self):
        with pytest.raises(ValueError):
            Cmp("ltu", "%d", "%a", "%b")

    def test_binop_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            BinOp("fma", "%d", "%a", "%b")

    def test_select_uses_all_three(self):
        instr = Select("%d", "%c", "%t", "%f")
        assert set(instr.uses()) == {"%c", "%t", "%f"}

    def test_store_has_no_def(self):
        instr = Store("@g", "%i", "%v")
        assert instr.defined() is None
        assert set(instr.uses()) == {"%i", "%v"}

    def test_call_uses_register_args(self):
        instr = Call("%r", "callee", ["%a", 3, "%b"])
        assert instr.uses() == ["%a", "%b"]
        assert instr.defined() == "%r"

    def test_ret_of_constant_has_no_uses(self):
        assert Ret(7).uses() == []
        assert Ret("%v").uses() == ["%v"]


class TestReplaceUses:
    def test_binop_replace(self):
        instr = BinOp("add", "%d", "%a", "%b")
        instr.replace_uses({"%a": "%x"})
        assert instr.lhs == "%x" and instr.rhs == "%b"

    def test_replace_does_not_touch_def(self):
        instr = BinOp("add", "%d", "%d", 1)
        instr.replace_uses({"%d": "%x"})
        assert instr.dst == "%d" and instr.lhs == "%x"

    def test_condbr_replace(self):
        instr = CondBr("%c", "a", "b")
        instr.replace_uses({"%c": "%k"})
        assert instr.cond == "%k"


class TestClone:
    def test_clone_is_deep_for_args(self):
        call = Call("%r", "f", ["%a"], probe_id=4, lexical_guid=9)
        clone = call.clone()
        clone.args.append("%b")
        assert call.args == ["%a"]
        assert clone.probe_id == 4 and clone.lexical_guid == 9

    def test_probe_clone_keeps_stack(self):
        probe = PseudoProbe(11, 2, inline_stack=((9, 4),), dangling=True)
        clone = probe.clone()
        assert clone.probe_key() == probe.probe_key()
        assert clone.dangling

    def test_every_subclass_copies_every_slot(self):
        loc = DebugLoc(7, 2, (InlineSite("g", 3),))
        samples = [
            Assign("%d", "%s", loc),
            BinOp("shl", "%d", "%a", 3, loc),
            Cmp("sge", "%d", 4, "%b", loc),
            Select("%d", "%c", "%t", 9, loc),
            Load("%d", "arr", "%i", loc),
            Store("@g", 2, "%v", loc),
            Call("%r", "f", ["%a", 5], loc, probe_id=6, lexical_guid=77,
                 inline_probe_stack=((5, 2),)),
            Br("next", loc),
            CondBr("%c", "yes", "no", loc),
            Ret("%v", loc),
            PseudoProbe(11, 2, ((9, 4),), True, loc),
            InstrProfIncrement("f", 3, loc),
        ]
        assert {type(i) for i in samples} == set(Instr.__subclasses__())
        for instr in samples:
            clone = instr.clone()
            assert type(clone) is type(instr) and clone is not instr
            assert repr(clone) == repr(instr)
            for cls in type(instr).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    value = getattr(instr, slot)
                    assert getattr(clone, slot) == value, slot
                    if isinstance(value, (list, dict, set)):
                        assert getattr(clone, slot) is not value, slot

    def test_clone_of_call_owns_its_args(self):
        call = Call("%r", "f", ["%a", "%b"])
        clone = call.clone()
        clone.replace_uses({"%a": "%x"})
        clone.args.append(1)
        assert call.args == ["%a", "%b"]
        assert clone.args == ["%x", "%b", 1]


class TestProbeContext:
    def test_call_probe_context_appends_own_site(self):
        call = Call(None, "f", [], probe_id=6, lexical_guid=77,
                    inline_probe_stack=((5, 2),))
        assert call.probe_context() == ((5, 2), (77, 6))

    def test_uninstrumented_call_has_empty_context(self):
        assert Call(None, "f", []).probe_context() == ()


class TestTerminators:
    def test_terminator_flags(self):
        assert Br("x").is_terminator
        assert CondBr("%c", "a", "b").is_terminator
        assert Ret().is_terminator
        assert not Assign("%a", 1).is_terminator


class TestDebugLoc:
    def test_pushed_into_prepends_site(self):
        loc = DebugLoc(4, 1, (InlineSite("g", 9),))
        pushed = loc.pushed_into(InlineSite("f", 2))
        assert [s.callee for s in pushed.inline_stack] == ["f", "g"]
        assert pushed.line == 4 and pushed.discriminator == 1

    def test_leaf_function(self):
        assert DebugLoc(1).leaf_function("root") == "root"
        loc = DebugLoc(1, 0, (InlineSite("inner", 3),))
        assert loc.leaf_function("root") == "inner"

    def test_equality_and_hash(self):
        a = DebugLoc(3, 1, (InlineSite("f", 2),))
        b = DebugLoc(3, 1, (InlineSite("f", 2),))
        assert a == b and hash(a) == hash(b)
        assert a != DebugLoc(3, 2, (InlineSite("f", 2),))
