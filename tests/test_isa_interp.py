"""Unit tests for the functional interpreter (architectural semantics)."""

import pytest

from repro.isa import (
    ExecutionError,
    FunctionalInterpreter,
    FunctionBuilder,
    Heap,
    Program,
    ThreadState,
    spawn_thread,
)
from repro.isa.instructions import Instruction

from helpers import linked_list_heap, list_sum_program
from sim_reference import execute


def run_main(build, heap=None, max_steps=1_000_000):
    """Build a one-function program with ``build(fb)`` and run it."""
    prog = Program(entry="main")
    fb = FunctionBuilder(prog.add_function("main"))
    heap = heap or Heap(1 << 16)
    build(fb, heap)
    prog.finalize()
    interp = FunctionalInterpreter(prog, heap, max_steps=max_steps)
    return interp, interp.run(), heap


class TestArithmetic:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 5, 3, 8), ("sub", 5, 3, 2), ("mul", 5, 3, 15),
        ("and", 0b110, 0b011, 0b010), ("or", 0b110, 0b011, 0b111),
        ("xor", 0b110, 0b011, 0b101),
    ])
    def test_binary_ops(self, op, a, b, expected):
        out = []

        def build(fb, heap):
            ra = fb.mov_imm(a)
            rb = fb.mov_imm(b)
            rc = getattr(fb, op if op not in ("and", "or") else op + "_")(
                ra, rb)
            cell = heap.alloc(8)
            out.append(cell)
            fb.store(fb.mov_imm(cell), rc)
            fb.halt()

        _, _, heap = run_main(build)
        assert heap.load(out[0]) == expected

    def test_shifts(self):
        out = []

        def build(fb, heap):
            r = fb.mov_imm(6)
            l = fb.shl(r, 2)
            rr = fb.shr(l, 1)
            cell = heap.alloc(8)
            out.append(cell)
            fb.store(fb.mov_imm(cell), rr)
            fb.halt()

        _, _, heap = run_main(build)
        assert heap.load(out[0]) == 12

    def test_immediate_operand(self):
        out = []

        def build(fb, heap):
            r = fb.add(fb.mov_imm(40), imm=2)
            cell = heap.alloc(8)
            out.append(cell)
            fb.store(fb.mov_imm(cell), r)
            fb.halt()

        _, _, heap = run_main(build)
        assert heap.load(out[0]) == 42

    def test_r0_stays_zero(self):
        out = []

        def build(fb, heap):
            fb.mov_imm(99, dest="r0")
            cell = heap.alloc(8)
            out.append(cell)
            fb.store(fb.mov_imm(cell), "r0")
            fb.halt()

        _, _, heap = run_main(build)
        assert heap.load(out[0]) == 0


class TestPredication:
    def test_false_predicate_squashes(self):
        out = []

        def build(fb, heap):
            p = fb.cmp("eq", fb.mov_imm(1), imm=2)  # false
            r = fb.mov_imm(10, dest="r60")
            fb.mov_imm(99, dest="r60", pred=p)      # squashed
            cell = heap.alloc(8)
            out.append(cell)
            fb.store(fb.mov_imm(cell), "r60")
            fb.halt()

        _, _, heap = run_main(build)
        assert heap.load(out[0]) == 10

    def test_true_predicate_executes(self):
        out = []

        def build(fb, heap):
            p = fb.cmp("eq", fb.mov_imm(2), imm=2)  # true
            fb.mov_imm(10, dest="r60")
            fb.mov_imm(99, dest="r60", pred=p)
            cell = heap.alloc(8)
            out.append(cell)
            fb.store(fb.mov_imm(cell), "r60")
            fb.halt()

        _, _, heap = run_main(build)
        assert heap.load(out[0]) == 99

    @pytest.mark.parametrize("rel,a,b,expected", [
        ("eq", 3, 3, True), ("ne", 3, 3, False), ("lt", 2, 3, True),
        ("le", 3, 3, True), ("gt", 4, 3, True), ("ge", 2, 3, False),
    ])
    def test_relations(self, rel, a, b, expected):
        out = []

        def build(fb, heap):
            p = fb.cmp(rel, fb.mov_imm(a), fb.mov_imm(b))
            fb.mov_imm(0, dest="r60")
            fb.mov_imm(1, dest="r60", pred=p)
            cell = heap.alloc(8)
            out.append(cell)
            fb.store(fb.mov_imm(cell), "r60")
            fb.halt()

        _, _, heap = run_main(build)
        assert heap.load(out[0]) == (1 if expected else 0)


class TestControlFlow:
    def test_list_sum(self):
        heap, _, out = linked_list_heap(20)
        prog = list_sum_program(heap.load  # head is first list-order node
                                and None or 0, out)  # placeholder

    def test_loop_sums_list(self):
        heap, addrs, out = linked_list_heap(20)
        prog = list_sum_program(addrs[0], out)
        FunctionalInterpreter(prog, heap).run()
        assert heap.load(out) == 20 * 21 // 2

    def test_recursive_call(self):
        prog = Program(entry="main")
        f = FunctionBuilder(prog.add_function("fact", num_params=1))
        (n,) = f.params(1)
        p = f.cmp("le", n, imm=1)
        f.br_cond(p, "base")
        nm1 = f.sub(n, imm=1)
        rec = f.call_fresh("fact", [nm1])
        f.ret(f.mul(n, rec))
        f.label("base")
        f.ret(f.mov_imm(1))
        heap = Heap(1 << 14)
        cell = heap.alloc(8)
        m = FunctionBuilder(prog.add_function("main"))
        r = m.call_fresh("fact", [m.mov_imm(6)])
        m.store(m.mov_imm(cell), r)
        m.halt()
        prog.finalize()
        FunctionalInterpreter(prog, heap).run()
        assert heap.load(cell) == 720

    def test_indirect_call_dispatch(self):
        prog = Program(entry="main")
        for name, value in (("f1", 111), ("f2", 222)):
            g = FunctionBuilder(prog.add_function(name))
            g.ret(g.mov_imm(value))
        heap = Heap(1 << 14)
        cell = heap.alloc(8)
        m = FunctionBuilder(prog.add_function("main"))
        prog.finalize()  # to learn ids
        fid = prog.function_id["f2"]
        idr = m.mov_imm(fid)
        r = m.fresh()
        m.call_indirect(idr, ret=r)
        m.store(m.mov_imm(cell), r)
        m.halt()
        prog.finalize()
        interp = FunctionalInterpreter(prog, heap)
        interp.run()
        assert heap.load(cell) == 222
        # The dynamic call graph recorded the indirect target.
        (targets,) = interp.indirect_targets.values()
        assert targets == {"f2": 1}

    def test_return_from_outermost_frame_halts(self):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.ret()
        prog.finalize()
        state = FunctionalInterpreter(prog, Heap(1 << 13)).run()
        assert state.halted

    def test_infinite_loop_detected(self):
        def build(fb, heap):
            fb.label("spin")
            fb.br("spin")

        with pytest.raises(ExecutionError, match="steps"):
            run_main(build, max_steps=1000)


class TestMemorySemantics:
    def test_bad_load_address_faults_main_thread(self):
        def build(fb, heap):
            fb.load(fb.mov_imm(3))  # misaligned
            fb.halt()

        with pytest.raises(ExecutionError, match="load"):
            run_main(build)

    def test_bad_store_address_faults(self):
        def build(fb, heap):
            fb.store(fb.mov_imm(0), "r0")  # below HEAP_BASE
            fb.halt()

        with pytest.raises(ExecutionError, match="store"):
            run_main(build)

    def test_speculative_bad_load_returns_zero(self):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.load(fb.mov_imm(3), dest="r60")
        fb.kill()
        prog.finalize()
        heap = Heap(1 << 13)
        state = ThreadState(tid=1, pc=0, speculative=True)
        state.regs["r40"] = 3
        while not state.done:
            execute(prog, heap, state, prog.code[state.pc])
        assert state.regs["r60"] == 0

    def test_speculative_store_forbidden(self):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.store(fb.mov_imm(0x2000), "r0")
        fb.kill()
        prog.finalize()
        state = ThreadState(tid=1, pc=0, speculative=True)
        heap = Heap(1 << 14)
        execute(prog, heap, state, prog.code[0])  # the mov
        with pytest.raises(ExecutionError, match="store"):
            execute(prog, heap, state, prog.code[1])

    def test_invalid_prefetch_dropped_silently(self):
        def build(fb, heap):
            fb.prefetch(fb.mov_imm(3))
            fb.halt()

        _, state, _ = run_main(build)
        assert state.halted


class TestSSPOpcodes:
    def test_chk_not_firing_falls_through(self):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.chk_c("stub")
        fb.halt()
        fb.label("stub")
        fb.rfi()
        prog.finalize()
        state = FunctionalInterpreter(prog, Heap(1 << 13)).run()
        assert state.halted

    def test_chk_firing_runs_stub_and_resumes(self):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.chk_c("stub")
        fb.mov_imm(7, dest="r60")
        fb.halt()
        fb.label("stub")
        fb.mov_imm(1, dest="r61")
        fb.rfi()
        prog.finalize()
        heap = Heap(1 << 13)
        state = ThreadState(tid=0, pc=0)
        while not state.done:
            instr = prog.code[state.pc]
            execute(prog, heap, state, instr, chk_fires=(instr.op == "chk.c"))
        assert state.regs["r61"] == 1  # stub ran
        assert state.regs["r60"] == 7  # resumed after the chk

    def test_rfi_without_pending_recovery_raises(self):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.rfi()
        prog.finalize()
        state = ThreadState(tid=0, pc=0)
        with pytest.raises(ExecutionError, match="rfi"):
            execute(prog, Heap(1 << 13), state, prog.code[0])

    def test_live_in_buffer_snapshot(self):
        parent = ThreadState(tid=0, pc=0)
        parent.lib_out[0] = 123
        child = spawn_thread(parent, 1, 0)
        parent.lib_out[0] = 456  # overwrite after spawn
        assert child.lib_in[0] == 123
        assert child.speculative

    def test_lib_roundtrip(self):
        prog = Program(entry="main")
        fb = FunctionBuilder(prog.add_function("main"))
        fb.lib_store(2, fb.mov_imm(77))
        fb.halt()
        prog.finalize()
        heap = Heap(1 << 13)
        state = ThreadState(tid=0, pc=0)
        while not state.done:
            execute(prog, heap, state, prog.code[state.pc])
        assert state.lib_out[2] == 77


class TestProfiling:
    def test_exec_counts(self):
        heap, addrs, out = linked_list_heap(10)
        prog = list_sum_program(addrs[0], out)
        interp = FunctionalInterpreter(prog, heap)
        interp.run()
        loop_loads = [i for i in prog.code if i.op == "ld"]
        assert all(interp.exec_counts[ld.uid] == 10 for ld in loop_loads)
