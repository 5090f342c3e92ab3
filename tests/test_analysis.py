"""Unit tests for the static-analysis package: dominator trees, loop
nesting, branch-probability heuristics and block-frequency propagation —
all against hand-computed answers on small builder-made CFGs."""

import math

import pytest

from repro.analysis import (PROB_EQ_TAKEN, PROB_LOOP_STAY, PROB_RETURN_TAKEN,
                            VIRTUAL_EXIT, BlockFrequencyInfo,
                            BranchProbabilityInfo, DominatorTree, LoopInfo,
                            PostDominatorTree)
from repro.ir import ModuleBuilder, back_edges, is_reducible, verify_module
from repro.workloads import SERVER_WORKLOADS, build_server_workload

from .conftest import build_diamond_module, build_loop_module
from .oracles.dominance import assert_matches_tree, immediate_dominators


def build_nested_loop_module():
    """main(n): two nested while loops (outer x inner)."""
    mb = ModuleBuilder("nested")
    f = mb.function("main", ["%n"])
    f.block("entry").mov("%i", 0).mov("%sum", 0).br("outer")
    f.block("outer").cmp("slt", "%c", "%i", "%n").condbr("%c", "ipre", "exit")
    f.block("ipre").mov("%j", 0).br("inner")
    f.block("inner").cmp("slt", "%d", "%j", 3).condbr("%d", "ibody", "ilatch")
    f.block("ibody").add("%sum", "%sum", 1).add("%j", "%j", 1).br("inner")
    f.block("ilatch").add("%i", "%i", 1).br("outer")
    f.block("exit").ret("%sum")
    module = mb.build()
    verify_module(module)
    return module


def build_irreducible_module():
    """Two-entry cycle a <-> b: the classic irreducible shape."""
    mb = ModuleBuilder("irr")
    f = mb.function("main", ["%x"])
    f.block("entry").cmp("slt", "%c", "%x", 5).condbr("%c", "a", "b")
    f.block("a").sub("%x", "%x", 1).cmp("sgt", "%p", "%x", 0).condbr(
        "%p", "b", "exit")
    f.block("b").sub("%x", "%x", 2).cmp("sgt", "%q", "%x", 0).condbr(
        "%q", "a", "exit")
    f.block("exit").ret("%x")
    module = mb.build()
    verify_module(module)
    return module


def build_return_branch_module():
    """entry branches to an early return or a fallthrough chain."""
    mb = ModuleBuilder("retbr")
    f = mb.function("main", ["%x"])
    f.block("entry").cmp("slt", "%c", "%x", 0).condbr("%c", "bail", "cont")
    f.block("bail").ret(0)
    f.block("cont").add("%x", "%x", 1).br("done")
    f.block("done").ret("%x")
    module = mb.build()
    verify_module(module)
    return module


def build_eq_branch_module(pred="eq"):
    """entry guards its branch with an eq/ne compare defined in-block."""
    mb = ModuleBuilder("eqbr")
    f = mb.function("main", ["%x"])
    f.block("entry").cmp(pred, "%c", "%x", 0).condbr("%c", "t", "f")
    f.block("t").mov("%r", 1).br("join")
    f.block("f").mov("%r", 2).br("join")
    f.block("join").add("%r", "%r", 0).br("tail")
    f.block("tail").ret("%r")
    module = mb.build()
    verify_module(module)
    return module


class TestImmediateDominators:
    def test_diamond(self):
        fn = build_diamond_module().function("main")
        idom = immediate_dominators(fn)
        assert idom == {"entry": None, "then": "entry", "else": "entry",
                        "join": "entry"}

    def test_loop(self):
        fn = build_loop_module().function("main")
        idom = immediate_dominators(fn)
        assert idom == {"entry": None, "loop": "entry", "body": "loop",
                        "exit": "loop"}

    def test_nested(self):
        fn = build_nested_loop_module().function("main")
        idom = immediate_dominators(fn)
        assert idom["inner"] == "ipre"
        assert idom["ibody"] == "inner"
        assert idom["ilatch"] == "inner"
        assert idom["exit"] == "outer"

    def test_unreachable_blocks_absent(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", [])
        f.block("entry").ret(0)
        f.block("island").ret(1)
        idom = immediate_dominators(mb.build().function("main"))
        assert "island" not in idom


class TestBackEdgesAndReducibility:
    def test_loop_back_edge(self):
        fn = build_loop_module().function("main")
        assert back_edges(fn) == [("body", "loop")]
        assert is_reducible(fn)

    def test_nested_back_edges(self):
        fn = build_nested_loop_module().function("main")
        assert set(back_edges(fn)) == {("ibody", "inner"),
                                       ("ilatch", "outer")}
        assert is_reducible(fn)

    def test_irreducible(self):
        fn = build_irreducible_module().function("main")
        assert not is_reducible(fn)
        # Neither cycle edge is a back edge: no header dominates the other.
        assert back_edges(fn) == []

    def test_straight_line_reducible(self):
        fn = build_diamond_module().function("main")
        assert is_reducible(fn)
        assert back_edges(fn) == []


class TestDominatorTree:
    def test_structure_and_levels(self):
        fn = build_loop_module().function("main")
        dt = DominatorTree.from_function(fn)
        assert dt.root == "entry"
        assert dt.children["entry"] == ["loop"]
        assert dt.children["loop"] == ["body", "exit"]
        assert dt.depth("entry") == 0
        assert dt.depth("body") == 2

    def test_dominates_queries(self):
        fn = build_nested_loop_module().function("main")
        dt = DominatorTree.from_function(fn)
        assert dt.dominates("outer", "ibody")
        assert dt.strictly_dominates("entry", "exit")
        assert dt.dominates("exit", "exit")
        assert not dt.strictly_dominates("exit", "exit")
        assert not dt.dominates("ibody", "ilatch")
        assert not dt.dominates("unknown", "entry")

    def test_matches_set_based_idoms(self):
        """Dominance, natural loops and back edges match the set-based
        oracle on the hand-built CFGs and every server-workload function."""
        modules = [build_diamond_module(), build_loop_module(),
                   build_nested_loop_module(), build_irreducible_module()]
        modules += [build_server_workload(name) for name in SERVER_WORKLOADS]
        for module in modules:
            for fn in module.functions.values():
                assert_matches_tree(fn)


class TestPostDominatorTree:
    def test_diamond_join_postdominates_all(self):
        fn = build_diamond_module().function("main")
        pdt = PostDominatorTree.from_function(fn)
        assert pdt.root == VIRTUAL_EXIT
        for label in ("entry", "then", "else"):
            assert pdt.post_dominates("join", label)
        assert not pdt.post_dominates("then", "entry")

    def test_loop_exit_postdominates_header(self):
        fn = build_loop_module().function("main")
        pdt = PostDominatorTree.from_function(fn)
        assert pdt.post_dominates("exit", "loop")
        assert pdt.post_dominates("exit", "body")
        assert not pdt.post_dominates("body", "loop")

    def test_multi_exit_rooted_at_virtual_exit(self):
        fn = build_return_branch_module().function("main")
        pdt = PostDominatorTree.from_function(fn)
        # Neither return block post-dominates entry; only the virtual exit.
        assert not pdt.post_dominates("bail", "entry")
        assert not pdt.post_dominates("done", "entry")
        assert pdt.post_dominates(VIRTUAL_EXIT, "entry")


class TestLoopInfo:
    def test_depths(self):
        li = LoopInfo(build_nested_loop_module().function("main"))
        assert li.loop_depth("entry") == 0
        assert li.loop_depth("exit") == 0
        assert li.loop_depth("outer") == 1
        assert li.loop_depth("ilatch") == 1
        assert li.loop_depth("inner") == 2
        assert li.loop_depth("ibody") == 2

    def test_innermost_and_parent(self):
        li = LoopInfo(build_nested_loop_module().function("main"))
        inner = li.innermost_loop("ibody")
        outer = li.innermost_loop("ilatch")
        assert inner.header == "inner"
        assert outer.header == "outer"
        assert li.parent["inner"] is outer
        assert li.parent["outer"] is None
        assert li.innermost_loop("entry") is None

    def test_headers_and_back_edges(self):
        li = LoopInfo(build_nested_loop_module().function("main"))
        assert li.is_loop_header("inner") and li.is_loop_header("outer")
        assert not li.is_loop_header("ibody")
        assert li.is_back_edge("ibody", "inner")
        assert li.is_back_edge("ilatch", "outer")
        assert not li.is_back_edge("entry", "outer")

    def test_reducibility_cached(self):
        assert LoopInfo(build_loop_module().function("main")).reducible
        assert not LoopInfo(
            build_irreducible_module().function("main")).reducible

    @pytest.mark.parametrize("build", [build_nested_loop_module,
                                       build_irreducible_module])
    def test_builds_one_dominator_tree(self, build, monkeypatch):
        # natural_loops, is_reducible and back_edges share LoopInfo's tree.
        fn = build().function("main")
        real = DominatorTree.from_function.__func__
        calls = []

        def counting(cls, function):
            calls.append(function.name)
            return real(cls, function)

        monkeypatch.setattr(DominatorTree, "from_function",
                            classmethod(counting))
        li = LoopInfo(fn)
        assert calls == ["main"]
        assert li.reducible == is_reducible(fn)


class TestBranchProbability:
    def test_loop_stay_heuristic(self):
        fn = build_loop_module().function("main")
        bpi = BranchProbabilityInfo(fn)
        assert bpi.probability("loop", "body") == pytest.approx(PROB_LOOP_STAY)
        assert bpi.probability("loop", "exit") == pytest.approx(
            1.0 - PROB_LOOP_STAY)

    def test_loop_entry_preference(self):
        # entry is outside the loop; branching *into* the loop is likely.
        mb = ModuleBuilder("m")
        f = mb.function("main", ["%n"])
        f.block("entry").cmp("slt", "%c", "%n", 0).condbr("%c", "skip", "loop")
        f.block("loop").sub("%n", "%n", 1).cmp("sgt", "%d", "%n", 0).condbr(
            "%d", "loop", "skip")
        f.block("skip").ret("%n")
        fn = mb.build().function("main")
        bpi = BranchProbabilityInfo(fn)
        assert bpi.probability("entry", "loop") == pytest.approx(
            PROB_LOOP_STAY)

    def test_return_heuristic(self):
        fn = build_return_branch_module().function("main")
        bpi = BranchProbabilityInfo(fn)
        assert bpi.probability("entry", "bail") == pytest.approx(
            PROB_RETURN_TAKEN)
        assert bpi.probability("entry", "cont") == pytest.approx(
            1.0 - PROB_RETURN_TAKEN)

    def test_opcode_heuristic_eq_and_ne(self):
        bpi = BranchProbabilityInfo(build_eq_branch_module("eq")
                                    .function("main"))
        assert bpi.probability("entry", "t") == pytest.approx(PROB_EQ_TAKEN)
        bpi = BranchProbabilityInfo(build_eq_branch_module("ne")
                                    .function("main"))
        assert bpi.probability("entry", "t") == pytest.approx(
            1.0 - PROB_EQ_TAKEN)

    def test_uniform_fallback(self):
        fn = build_diamond_module().function("main")
        bpi = BranchProbabilityInfo(fn)
        # slt compare: no heuristic discriminates, uniform split.
        assert bpi.probability("entry", "then") == pytest.approx(0.5)
        assert bpi.probability("entry", "else") == pytest.approx(0.5)

    def test_single_successor_probability_one(self):
        fn = build_diamond_module().function("main")
        bpi = BranchProbabilityInfo(fn)
        assert bpi.probability("then", "join") == 1.0
        assert bpi.successor_probs("join") == {}

    def test_successor_probs_sum_to_one(self):
        for module in (build_loop_module(), build_diamond_module(),
                       build_nested_loop_module(),
                       build_return_branch_module()):
            fn = module.function("main")
            bpi = BranchProbabilityInfo(fn)
            for block in fn.blocks:
                probs = bpi.successor_probs(block.label)
                if probs:
                    assert sum(probs.values()) == pytest.approx(1.0)


class TestBlockFrequency:
    def test_loop_converges_to_closed_form(self):
        fn = build_loop_module().function("main")
        bfi = BlockFrequencyInfo(fn)
        trips = 1.0 / (1.0 - PROB_LOOP_STAY)  # 8.0 at 0.875
        assert bfi.frequency("entry") == pytest.approx(1.0)
        assert bfi.frequency("loop") == pytest.approx(trips, rel=1e-6)
        assert bfi.frequency("body") == pytest.approx(trips - 1.0, rel=1e-6)
        assert bfi.frequency("exit") == pytest.approx(1.0, rel=1e-6)

    def test_nested_loops_multiply(self):
        fn = build_nested_loop_module().function("main")
        bfi = BlockFrequencyInfo(fn)
        trips = 1.0 / (1.0 - PROB_LOOP_STAY)
        assert bfi.frequency("outer") == pytest.approx(trips, rel=1e-5)
        # Inner header runs trips times per outer iteration.
        assert bfi.frequency("inner") == pytest.approx(
            (trips - 1.0) * trips, rel=1e-5)
        assert bfi.frequency("exit") == pytest.approx(1.0, rel=1e-5)

    def test_diamond_splits_and_rejoins(self):
        fn = build_diamond_module().function("main")
        bfi = BlockFrequencyInfo(fn)
        assert bfi.frequency("then") == pytest.approx(0.5)
        assert bfi.frequency("else") == pytest.approx(0.5)
        assert bfi.frequency("join") == pytest.approx(1.0)

    def test_unreachable_block_zero(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", [])
        f.block("entry").ret(0)
        f.block("island").ret(1)
        bfi = BlockFrequencyInfo(mb.build().function("main"))
        assert bfi.frequency("island") == 0.0

    def test_frequencies_finite(self):
        fn = build_irreducible_module().function("main")
        bfi = BlockFrequencyInfo(fn)
        for label, value in bfi.freq.items():
            assert math.isfinite(value) and value >= 0.0
