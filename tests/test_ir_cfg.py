"""Unit tests for CFG analyses: RPO, dominators, natural loops."""

from repro.ir import (ModuleBuilder, loop_exits, natural_loops,
                      predecessors_map, reachable_blocks, reverse_post_order,
                      successors_map)

from .oracles.dominance import dominators


class TestOrders:
    def test_rpo_starts_at_entry(self, loop_module):
        rpo = reverse_post_order(loop_module.function("main"))
        assert rpo[0] == "entry"
        assert set(rpo) == {"entry", "loop", "body", "exit"}

    def test_rpo_header_before_body(self, loop_module):
        rpo = reverse_post_order(loop_module.function("main"))
        assert rpo.index("loop") < rpo.index("body")

    def test_unreachable_blocks_excluded(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", [])
        f.block("entry").ret(0)
        f.block("island").ret(1)
        fn = mb.build().function("main")
        assert reachable_blocks(fn) == {"entry"}

    def test_predecessors(self, loop_module):
        preds = predecessors_map(loop_module.function("main"))
        assert set(preds["loop"]) == {"entry", "body"}
        assert preds["entry"] == []

    def test_successors_map_matches_blocks(self, diamond_module):
        succs = successors_map(diamond_module.function("main"))
        assert succs["entry"] == ["then", "else"]
        assert succs["join"] == []


class TestDominators:
    def test_entry_dominates_everything(self, loop_module):
        dom = dominators(loop_module.function("main"))
        for label in ("loop", "body", "exit"):
            assert "entry" in dom[label]

    def test_join_not_dominated_by_sides(self, diamond_module):
        dom = dominators(diamond_module.function("main"))
        assert "then" not in dom["join"]
        assert "else" not in dom["join"]
        assert dom["join"] == {"entry", "join"}


class TestLoops:
    def test_while_loop_detected(self, loop_module):
        loops = natural_loops(loop_module.function("main"))
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header == "loop"
        assert loop.body == {"loop", "body"}
        assert loop.latches == {"body"}

    def test_loop_exits(self, loop_module):
        fn = loop_module.function("main")
        loop = natural_loops(fn)[0]
        assert loop_exits(fn, loop) == [("loop", "exit")]

    def test_no_loops_in_diamond(self, diamond_module):
        assert natural_loops(diamond_module.function("main")) == []

    def test_self_loop(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", ["%n"])
        f.block("entry").mov("%i", 0).br("dw")
        f.block("dw").add("%i", "%i", 1).cmp("slt", "%c", "%i", "%n") \
            .condbr("%c", "dw", "out")
        f.block("out").ret("%i")
        loops = natural_loops(mb.build().function("main"))
        assert len(loops) == 1
        assert loops[0].header == "dw" and loops[0].body == {"dw"}

    def test_nested_loops_share_nothing(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", ["%n"])
        f.block("entry").mov("%i", 0).br("outer")
        f.block("outer").cmp("slt", "%co", "%i", "%n").condbr("%co", "inner_pre", "done")
        f.block("inner_pre").mov("%j", 0).br("inner")
        f.block("inner").cmp("slt", "%ci", "%j", 3).condbr("%ci", "ibody", "iexit")
        f.block("ibody").add("%j", "%j", 1).br("inner")
        f.block("iexit").add("%i", "%i", 1).br("outer")
        f.block("done").ret("%i")
        fn = mb.build().function("main")
        loops = {l.header: l for l in natural_loops(fn)}
        assert set(loops) == {"outer", "inner"}
        assert "inner" in loops["outer"].body
        assert "outer" not in loops["inner"].body
