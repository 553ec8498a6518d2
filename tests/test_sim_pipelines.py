"""Integration tests for the in-order and OOO timing models."""

import pytest

from repro.isa import FunctionBuilder, FunctionalInterpreter, Heap, Program
from repro.runner import RunSpec, execute_spec
from repro.sim import inorder_config, ooo_config, simulate
from repro.workloads import PAPER_ORDER

from helpers import linked_list_heap, list_sum_program, mcf_like_workload


def straightline_program(n_adds: int = 60):
    prog = Program(entry="main")
    fb = FunctionBuilder(prog.add_function("main"))
    fb.mov_imm(0, dest="r50")
    for _ in range(n_adds):
        fb.add("r50", imm=1, dest="r50")
    fb.halt()
    return prog.finalize()


class TestInOrderBasics:
    def test_correctness_matches_functional(self):
        heap, addrs, out = linked_list_heap(50)
        prog = list_sum_program(addrs[0], out)
        simulate(prog, heap, "inorder")
        assert heap.load(out) == 50 * 51 // 2

    def test_serial_adds_bounded_by_dependence(self):
        # A chain of dependent adds retires at most one per cycle.
        prog = straightline_program(60)
        stats = simulate(prog, Heap(1 << 13), "inorder")
        assert stats.cycles >= 60

    def test_memory_bound_dominated_by_l3_category(self):
        heap, addrs, out = linked_list_heap(2000)
        prog = list_sum_program(addrs[0], out)
        stats = simulate(prog, heap, "inorder")
        breakdown = stats.cycle_breakdown
        assert breakdown["L3"] > stats.cycles * 0.5

    def test_cycle_breakdown_sums_to_cycles(self):
        heap, addrs, out = linked_list_heap(500)
        prog = list_sum_program(addrs[0], out)
        stats = simulate(prog, heap, "inorder")
        assert sum(stats.cycle_breakdown.values()) == stats.cycles

    def test_perfect_memory_much_faster(self):
        heap, addrs, out = linked_list_heap(2000)
        prog = list_sum_program(addrs[0], out)
        base = simulate(prog, heap, "inorder")
        heap2, addrs2, out2 = linked_list_heap(2000)
        fast = simulate(list_sum_program(addrs2[0], out2), heap2, "inorder",
                        config=inorder_config().with_perfect_memory())
        assert base.cycles / fast.cycles > 5

    def test_instruction_count_matches_functional(self):
        heap, addrs, out = linked_list_heap(100)
        prog = list_sum_program(addrs[0], out)
        interp = FunctionalInterpreter(prog, heap)
        interp.run()
        heap2, addrs2, out2 = linked_list_heap(100)
        stats = simulate(list_sum_program(addrs2[0], out2), heap2, "inorder")
        assert stats.main_instructions == interp.steps


class TestOOOBasics:
    def test_correctness(self):
        heap, addrs, out = linked_list_heap(50)
        prog = list_sum_program(addrs[0], out)
        simulate(prog, heap, "ooo")
        assert heap.load(out) == 50 * 51 // 2

    def test_ooo_overlaps_independent_misses(self):
        """On the mcf-like kernel (independent iterations) the OOO window
        overlaps misses that serialise the in-order machine (Figure 8: the
        OOO model alone achieves a large speedup over in-order)."""
        prog_i, heap_i, _ = mcf_like_workload(ssp=False)
        inorder = simulate(prog_i, heap_i, "inorder")
        prog_o, heap_o, _ = mcf_like_workload(ssp=False)
        ooo = simulate(prog_o, heap_o, "ooo")
        assert inorder.cycles / ooo.cycles > 1.5

    def test_ooo_cannot_beat_dependence_chain(self):
        # A serial pointer chase has no MLP for the window to find.
        heap, addrs, out = linked_list_heap(1500)
        prog = list_sum_program(addrs[0], out)
        inorder = simulate(prog, heap, "inorder")
        heap2, addrs2, out2 = linked_list_heap(1500)
        ooo = simulate(list_sum_program(addrs2[0], out2), heap2, "ooo")
        assert inorder.cycles / ooo.cycles < 1.5

    def test_ooo_faster_than_inorder_on_ilp_code(self):
        prog = straightline_program(200)
        i = simulate(prog, Heap(1 << 13), "inorder")
        prog2 = straightline_program(200)
        o = simulate(prog2, Heap(1 << 13), "ooo")
        # Dependent chain: both roughly 1/cycle; OOO shouldn't be slower
        # by more than its longer pipeline.
        assert o.cycles <= i.cycles + ooo_config().pipeline_stages + 8


class TestModelSelection:
    def test_unknown_model_rejected(self):
        heap, addrs, out = linked_list_heap(5)
        prog = list_sum_program(addrs[0], out)
        with pytest.raises(ValueError):
            simulate(prog, heap, "vliw")

    def test_runaway_guard(self):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.label("spin")
        fb.br("spin")
        prog.finalize()
        with pytest.raises(RuntimeError):
            simulate(prog, Heap(1 << 13), "inorder", max_cycles=10_000)


class TestBranchPredictionEffects:
    def test_loop_branch_learned(self):
        heap, addrs, out = linked_list_heap(500)
        prog = list_sum_program(addrs[0], out)
        stats = simulate(prog, heap, "inorder")
        # A monotone loop branch should mispredict only around the exit.
        assert stats.mispredicts < 20


@pytest.mark.parametrize("model", ("inorder", "ooo"))
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_single_hardware_context(name, model):
    # One context leaves no room for speculative threads: the base binary
    # times exactly as on four contexts, and the SSP binary's triggers
    # never fire but its output stays correct (execute_spec checks it).
    def run(variant, contexts):
        overrides = {"hardware_contexts": contexts} if contexts else None
        return execute_spec(RunSpec.create(
            name, scale="tiny", model=model, variant=variant,
            config_overrides=overrides))["stats"]

    assert run("base", 1) == run("base", None)
    assert run("ssp", 1)["spawns"] == 0
