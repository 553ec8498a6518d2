"""Tests for CFG construction, dominance, loops, and control dependence."""

import pytest

from repro.analysis import (
    CFG,
    EXIT,
    control_dependences,
    dominator_tree,
    find_loops,
    innermost_loop,
    postdominator_tree,
)
from repro.isa import FunctionBuilder, Program


def diamond() -> CFG:
    """entry -> (then | else) -> join -> exit."""
    prog = Program()
    fb = FunctionBuilder(prog.add_function("f"))
    p = fb.cmp("eq", fb.mov_imm(1), imm=1)
    fb.br_cond(p, "then")
    fb.label("else")
    fb.mov_imm(2)
    fb.br("join")
    fb.label("then")
    fb.mov_imm(3)
    fb.label("join")
    fb.halt()
    return CFG(prog.function("f"))


def nested_loops() -> CFG:
    prog = Program()
    fb = FunctionBuilder(prog.add_function("f"))
    fb.mov_imm(0, dest="r100")
    fb.label("outer")
    fb.mov_imm(0, dest="r101")
    fb.label("inner")
    fb.add("r101", imm=1, dest="r101")
    pi = fb.cmp("lt", "r101", imm=10)
    fb.br_cond(pi, "inner")
    fb.add("r100", imm=1, dest="r100")
    po = fb.cmp("lt", "r100", imm=5)
    fb.br_cond(po, "outer")
    fb.halt()
    return CFG(prog.function("f"))


class TestCFG:
    def test_diamond_edges(self):
        cfg = diamond()
        assert set(cfg.successors("entry")) == {"then", "else"}
        assert cfg.successors("else") == ["join"]
        # 'then' falls through to 'join'.
        assert cfg.successors("then") == ["join"]
        assert cfg.successors("join") == [EXIT]

    def test_predecessors(self):
        cfg = diamond()
        assert set(cfg.predecessors("join")) == {"then", "else"}

    def test_reachability(self):
        prog = Program()
        fb = FunctionBuilder(prog.add_function("f"))
        fb.halt()
        fb.label("dead")
        fb.halt()
        cfg = CFG(prog.function("f"))
        assert "dead" not in cfg.reachable()

    def test_self_qualified_branch_target_is_the_local_label(self):
        """``main::exit`` names main's own block: a legal target that the
        CFG must key by its local label."""
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        p = fb.cmp("eq", fb.mov_imm(1), imm=1)
        fb.br_cond(p, "main::exit")
        fb.label("body")
        fb.br("main::entry")
        fb.label("exit")
        fb.halt()
        prog.finalize()
        cfg = CFG(prog.function("main"))
        assert cfg.successors("entry") == ["exit", "body"]
        assert cfg.successors("body") == ["entry"]
        assert cfg.predecessors("exit") == ["entry"]
        assert cfg.reachable() == {"entry", "body", "exit", EXIT}
        assert cfg.reverse_postorder()[0] == "entry"

    def test_reverse_postorder_starts_at_entry(self):
        order = diamond().reverse_postorder()
        assert order[0] == "entry"
        assert order.index("join") > order.index("then")
        assert order.index("join") > order.index("else")


class TestDominance:
    def test_diamond_dominators(self):
        cfg = diamond()
        dom = dominator_tree(cfg)
        assert dom.idom["then"] == "entry"
        assert dom.idom["else"] == "entry"
        assert dom.idom["join"] == "entry"  # neither branch dominates
        assert dom.dominates("entry", "join")
        assert not dom.dominates("then", "join")

    def test_dominates_is_reflexive(self):
        dom = dominator_tree(diamond())
        assert dom.dominates("then", "then")

    def test_dominators_of_chain(self):
        cfg = nested_loops()
        dom = dominator_tree(cfg)
        chain = dom.dominators_of("inner")
        assert chain[0] == "inner"
        assert chain[-1] == "entry"
        assert "outer" in chain

    def test_postdominators(self):
        cfg = diamond()
        pdom = postdominator_tree(cfg)
        # join post-dominates both arms and the entry.
        assert pdom.dominates("join", "then")
        assert pdom.dominates("join", "entry")
        assert not pdom.dominates("then", "entry")


class TestControlDependence:
    def test_branch_controls_arms_not_join(self):
        cfg = diamond()
        cdeps = control_dependences(cfg)
        assert "entry" in cdeps["then"]
        assert "entry" in cdeps["else"]
        assert "entry" not in cdeps.get("join", set())

    def test_loop_controls_itself(self):
        cfg = nested_loops()
        cdeps = control_dependences(cfg)
        assert "inner" in cdeps["inner"]


class TestLoops:
    def test_nested_loops_found(self):
        cfg = nested_loops()
        loops = find_loops(cfg)
        headers = {l.header for l in loops}
        assert headers == {"outer", "inner"}

    def test_nesting_relationship(self):
        loops = find_loops(nested_loops())
        by_header = {l.header: l for l in loops}
        assert by_header["inner"].parent is by_header["outer"]
        assert by_header["inner"] in by_header["outer"].children
        assert by_header["outer"].depth == 1
        assert by_header["inner"].depth == 2

    def test_loop_bodies(self):
        loops = find_loops(nested_loops())
        by_header = {l.header: l for l in loops}
        assert "inner" in by_header["outer"].body
        assert "outer" not in by_header["inner"].body
        assert "entry" not in by_header["outer"].body

    def test_innermost_loop(self):
        loops = find_loops(nested_loops())
        inner = innermost_loop(loops, "inner")
        assert inner.header == "inner"
        outer = innermost_loop(loops, "outer")
        assert outer.header == "outer"
        assert innermost_loop(loops, "entry") is None

    def test_no_loops_in_diamond(self):
        assert find_loops(diamond()) == []
