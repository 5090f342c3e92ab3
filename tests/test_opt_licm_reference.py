"""LICM against its recompute-per-hoist reference (``tests/oracles``).

The production pass builds dominators once per function and answers exit
liveness by a path search; the reference recomputes dominator sets and
whole-function liveness after every hoist.  On every function the two
must hoist the same number of instructions and leave identical IR.
"""

from repro.ir import ModuleBuilder, print_function, verify_module
from repro.opt import OptConfig, build_pass_manager, licm_function
from repro.probes import insert_pseudo_probes
from repro.workloads import (SERVER_WORKLOADS, build_server_workload,
                             build_workload, large_module_spec)

from .conftest import run_ir
from .oracles import licm_reference


def _before_licm(module):
    """Run the pipeline's passes that precede LICM (simplify-cfg, inline)."""
    pm = build_pass_manager(OptConfig())
    for pass_fn, name in zip(pm.passes, pm.pass_names):
        if name == "licm":
            break
        pass_fn(module)
    return module


def _assert_same_hoists(fn):
    """Both passes on clones of ``fn``; returns the hoist count."""
    new, ref = fn.clone(), fn.clone()
    hoisted = licm_function(new)
    assert hoisted == licm_reference.licm_function(ref), fn.name
    assert print_function(new) == print_function(ref), fn.name
    return hoisted


def test_matches_reference_on_workloads():
    """Every function of the five servers and a 40-function large module
    (with and without pseudo-probes), after simplify-cfg and inline."""
    modules = {name: build_server_workload(name) for name in SERVER_WORKLOADS}
    large = build_workload(large_module_spec(functions=40, seed=0))
    probed = large.clone()
    insert_pseudo_probes(probed)
    modules.update({"large": large, "large+probes": probed})
    hoisted = {}
    for name, module in modules.items():
        module = _before_licm(module)
        hoisted[name] = sum(_assert_same_hoists(fn)
                            for fn in module.functions.values())
    assert sum(hoisted[name] for name in SERVER_WORKLOADS) > 0
    assert hoisted["large"] > 0 and hoisted["large+probes"] > 0


def _inner_hoist_live_around_outer():
    """The inner loop's exit target ``iexit`` sits inside the outer loop.

    ``%u`` is dead there and hoists although ``ibody`` does not dominate
    ``iexit``; ``%w`` is live into ``iexit`` only around the outer loop
    (``iexit -> outer`` reads it), so it stays.  ``%inv`` and ``%u`` then
    hoist a second time, out of the outer loop.
    """
    mb = ModuleBuilder("nest")
    f = mb.function("main", ["%n", "%k"])
    f.block("entry").mov("%i", 0).mov("%sum", 0).mov("%w", 0).br("outer")
    (f.block("outer").add("%sum", "%sum", "%w")
        .cmp("slt", "%co", "%i", "%n").condbr("%co", "opre", "done"))
    f.block("opre").mov("%j", 0).br("inner")
    (f.block("inner").mul("%inv", "%k", 7)
        .cmp("slt", "%ci", "%j", 3).condbr("%ci", "ibody", "iexit"))
    (f.block("ibody").mul("%w", "%k", 5).mul("%u", "%k", 3)
        .add("%sum", "%sum", "%u").add("%j", "%j", 1).br("inner"))
    (f.block("iexit").add("%sum", "%sum", "%inv").add("%i", "%i", 1)
        .br("outer"))
    f.block("done").ret("%sum")
    module = mb.build()
    verify_module(module)
    return module


def _preheader_after_hoist():
    """Loop ``first`` hoists into an existing preheader; then ``inner``,
    entered from both arms of a branch, gets a new preheader block.

    The new block is also an exit target of the stale ``outer`` body, so
    ``%x`` (live into ``done``) stays only if the rebuilt tree knows that
    ``left`` does not dominate the new preheader.
    """
    mb = ModuleBuilder("seq")
    f = mb.function("main", ["%n", "%k"])
    f.block("entry").mov("%i", 0).mov("%sum", 0).mov("%a", 0).br("first")
    f.block("first").cmp("slt", "%c0", "%a", 3).condbr("%c0", "fbody", "fdone")
    (f.block("fbody").mul("%t0", "%k", 11).add("%sum", "%sum", "%t0")
        .add("%a", "%a", 1).br("first"))
    f.block("fdone").br("outer")
    f.block("outer").cmp("sgt", "%p", "%k", 0).condbr("%p", "left", "right")
    (f.block("left").mul("%x", "%k", 3).mov("%j", 0)
        .cmp("sge", "%q", "%i", "%n").condbr("%q", "done", "inner"))
    f.block("right").mov("%j", 0).br("inner")
    f.block("inner").cmp("slt", "%ci", "%j", 2).condbr("%ci", "ibody", "latch")
    (f.block("ibody").mul("%t", "%k", 2).add("%sum", "%sum", "%t")
        .add("%j", "%j", 1).br("inner"))
    f.block("latch").add("%i", "%i", 1).br("outer")
    f.block("done").add("%sum", "%sum", "%x").ret("%sum")
    module = mb.build()
    verify_module(module)
    return module


def _hoisted_from(module_before, module_after, label):
    """Destination registers that left block ``label``."""
    def dsts(module):
        block = module.function("main").block(label)
        return {i.defined() for i in block.instrs} - {None}
    return dsts(module_before) - dsts(module_after)


class TestHandBuilt:
    def test_inner_exit_target_inside_outer_loop(self):
        module = _inner_hoist_live_around_outer()
        before = module.clone()
        assert _assert_same_hoists(module.function("main")) == 4
        licm_function(module.function("main"))
        verify_module(module)
        assert _hoisted_from(before, module, "ibody") == {"%u"}
        entry = [i.defined() for i in module.function("main").entry.instrs]
        assert entry[-3:-1] == ["%u", "%inv"]
        for args in ([4, 2], [0, 2]):
            assert run_ir(module, args).return_value == \
                run_ir(before, args).return_value

    def test_new_preheader_rebuilds_dominators(self):
        module = _preheader_after_hoist()
        before = module.clone()
        assert _assert_same_hoists(module.function("main")) == 3
        fn = module.function("main")
        licm_function(fn)
        verify_module(module)
        assert fn.has_block("preheader11")
        assert _hoisted_from(before, module, "fbody") == {"%t0"}
        assert _hoisted_from(before, module, "left") == set()
        assert [i.defined() for i in fn.block("preheader11").instrs] == \
            ["%t", None]
        for args in ([3, 2], [0, 5]):
            assert run_ir(module, args).return_value == \
                run_ir(before, args).return_value
