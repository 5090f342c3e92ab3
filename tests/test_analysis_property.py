"""Property tests for the static analyses.

Two families:

* determinism — every analysis is a pure function of the IR, so two
  independent constructions over the same module agree exactly;
* ground truth — the structural invariants the linter and estimator rely
  on actually hold for *exact* interpreter counts on generated workload
  modules: flow conservation, entry domination of depth-0 blocks, and
  loop-header monotonicity (all on reducible CFGs, which is what the
  generator emits).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (BlockFrequencyInfo, BranchProbabilityInfo,
                            DominatorTree, LoopInfo, PostDominatorTree,
                            top_down_order)
from repro.ir import IRInterpreter, back_edges
from repro.workloads import WorkloadSpec, build_workload

from .oracles.dominance import assert_matches_tree, immediate_dominators

seeds = st.integers(min_value=0, max_value=10_000)

#: Small generated programs keep each hypothesis example fast.
_SPEC_KW = dict(n_leaf=4, n_dispatch=2, n_mid=3, n_wrapper=1,
                n_workers=2, n_services=2, requests=30)


def _module_for(seed):
    return build_workload(WorkloadSpec(f"prop{seed}", seed=seed, **_SPEC_KW))


class TestDeterminism:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_analyses_deterministic(self, seed):
        module_a, module_b = _module_for(seed), _module_for(seed)
        assert top_down_order(module_a) == top_down_order(module_b)
        for name in module_a.functions:
            fa = module_a.functions[name]
            fb = module_b.functions[name]
            assert immediate_dominators(fa) == immediate_dominators(fb)
            assert back_edges(fa) == back_edges(fb)
            assert DominatorTree.from_function(fa).idom == \
                DominatorTree.from_function(fb).idom
            assert PostDominatorTree.from_function(fa).idom == \
                PostDominatorTree.from_function(fb).idom
            la, lb = LoopInfo(fa), LoopInfo(fb)
            assert la.depth == lb.depth
            assert [l.header for l in la.loops] == [l.header for l in lb.loops]
            assert BranchProbabilityInfo(fa).edge_prob == \
                BranchProbabilityInfo(fb).edge_prob
            assert BlockFrequencyInfo(fa).freq == BlockFrequencyInfo(fb).freq

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_dominance_matches_set_oracle(self, seed):
        for fn in _module_for(seed).functions.values():
            assert_matches_tree(fn)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_probabilities_well_formed(self, seed):
        module = _module_for(seed)
        for fn in module.functions.values():
            bpi = BranchProbabilityInfo(fn)
            for block in fn.blocks:
                probs = bpi.successor_probs(block.label)
                for prob in probs.values():
                    assert 0.0 < prob <= 1.0
                if probs:
                    assert abs(sum(probs.values()) - 1.0) < 1e-9

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_frequencies_well_formed(self, seed):
        module = _module_for(seed)
        for fn in module.functions.values():
            bfi = BlockFrequencyInfo(fn)
            assert bfi.frequency(fn.entry.label) >= 1.0
            for value in bfi.freq.values():
                assert value >= 0.0


class TestInterpreterGroundTruth:
    """Exact counts obey the invariants the linter checks with tolerance."""

    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_exact_counts_satisfy_lint_invariants(self, seed):
        module = _module_for(seed)
        result = IRInterpreter(module.clone()).run([30])
        counts = {}
        for (fn_name, label), count in result.block_counts.items():
            counts.setdefault(fn_name, {})[label] = count
        checked_flow = checked_entry = checked_loop = 0
        for name, fn_counts in counts.items():
            fn = module.functions[name]
            loop_info = LoopInfo(fn)
            assert loop_info.reducible
            entry = fn.entry.label
            entry_count = fn_counts.get(entry, 0)
            preds = {}
            for block in fn.blocks:
                for succ in block.successors():
                    preds.setdefault(succ, []).append(block.label)
            for block in fn.blocks:
                label = block.label
                count = fn_counts.get(label, 0)
                # Flow conservation: inflow bounds every non-entry block.
                if label != entry and label in preds:
                    inflow = sum(fn_counts.get(p, 0) for p in preds[label])
                    assert count <= inflow
                    checked_flow += 1
                # Entry domination: depth-0 blocks run at most once per call.
                if label != entry and loop_info.loop_depth(label) == 0:
                    assert count <= entry_count
                    checked_entry += 1
                # Loop monotonicity: same-depth blocks never outrun their
                # innermost header.
                loop = loop_info.innermost_loop(label)
                if loop is not None and label != loop.header:
                    assert count <= fn_counts.get(loop.header, 0)
                    checked_loop += 1
        # The module actually exercised each invariant.
        assert checked_flow and checked_entry and checked_loop

    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_back_edges_match_executed_cycles(self, seed):
        """Every repeated block visit travels a recognized back edge: the
        edge counts on non-back edges are bounded by the source's count."""
        module = _module_for(seed)
        result = IRInterpreter(module.clone()).run([30])
        for (fn_name, src, dst), taken in result.edge_counts.items():
            fn = module.functions[fn_name]
            loop_info = LoopInfo(fn)
            src_count = result.block_counts.get((fn_name, src), 0)
            assert taken <= src_count
            if loop_info.is_back_edge(src, dst):
                header_count = result.block_counts.get((fn_name, dst), 0)
                assert taken < header_count
