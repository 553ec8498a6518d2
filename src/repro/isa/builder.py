"""Fluent construction API for IR programs.

Workloads (and the SSP code emitter) build functions through
:class:`FunctionBuilder`, which manages block creation, fresh virtual
registers/predicates, and the calling convention.  Example::

    prog = Program(entry="main")
    fb = FunctionBuilder(prog.add_function("main"))
    t = fb.mov_imm(41)
    u = fb.add(t, imm=1)
    fb.halt()
    prog.finalize()
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import instructions as ins
from . import registers as regs
from .program import Function, Program


class FunctionBuilder:
    """Builds one :class:`Function`, block by block.

    Instructions are appended to the *current block*; :meth:`label` opens a
    new block (creating a fall-through edge when the previous block does not
    end in an unconditional transfer).  Register management:

    * :meth:`fresh` returns a new temporary integer register,
    * :meth:`fresh_pred` a new predicate register,
    * :meth:`arg` the i-th incoming argument register.

    Most emission helpers allocate and return a fresh destination register
    when ``dest`` is not given, so code reads like three-address SSA even
    though registers may be reused freely.
    """

    def __init__(self, func: Function, entry_label: str = "entry"):
        self.func = func
        self._temp_counter = 0
        self._pred_counter = 0
        self._label_counter = 0
        self._block = func.add_block(entry_label)

    # -- registers -----------------------------------------------------------

    def fresh(self) -> str:
        """Allocate a fresh temporary integer register."""
        reg = regs.temp_register(self._temp_counter)
        self._temp_counter += 1
        return reg

    def fresh_pred(self) -> str:
        """Allocate a fresh predicate register."""
        pred = regs.pred_register(self._pred_counter)
        self._pred_counter += 1
        return pred

    def arg(self, index: int) -> str:
        """The register holding the ``index``-th incoming argument.

        NOTE: argument registers are also the outgoing-argument registers,
        so they are clobbered by any call this function makes.  Functions
        that call others should grab their parameters once via
        :meth:`params` (which copies them to temporaries at entry) instead
        of reading ``arg(i)`` after a call.
        """
        return regs.arg_register(index)

    def params(self, count: int) -> List[str]:
        """Copy the first ``count`` incoming arguments into fresh temps.

        Emit this at function entry; the returned registers survive calls.
        """
        return [self.mov(regs.arg_register(i)) for i in range(count)]

    def fresh_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f".{hint}{self._label_counter}"

    # -- blocks ---------------------------------------------------------------

    def label(self, name: str) -> str:
        """Start a new basic block named ``name``; returns the label."""
        if not self._block.instrs and self._block.label.startswith(".fall"):
            # Drop the unused auto fall-through block emit() opened.
            self.func.remove_block(self._block.label)
        self._block = self.func.add_block(name)
        return name

    def emit(self, instr: ins.Instruction) -> ins.Instruction:
        """Append a raw instruction to the current block.

        Control-transfer instructions end a basic block: after emitting a
        branch (or any terminator) the builder silently opens a fresh
        fall-through block, so CFG edges — including loop back edges — are
        always block-boundary edges.  Calls and ``chk.c`` do not end blocks
        (they fall through in the main thread's CFG).
        """
        emitted = self._block.append(instr)
        if instr.op in (ins.OP_BR, ins.OP_BR_COND) or instr.is_terminator:
            self._block = self.func.add_block(self.fresh_label("fall"))
        return emitted

    # -- arithmetic -----------------------------------------------------------

    def _alu(self, op: str, a: str, b: Optional[str], imm: Optional[int],
             dest: Optional[str], pred: Optional[str]) -> str:
        dest = dest or self.fresh()
        self.emit(ins.alu(op, dest, a, b, imm, pred))
        return dest

    def add(self, a: str, b: Optional[str] = None, imm: Optional[int] = None,
            dest: Optional[str] = None, pred: Optional[str] = None) -> str:
        return self._alu("add", a, b, imm, dest, pred)

    def sub(self, a: str, b: Optional[str] = None, imm: Optional[int] = None,
            dest: Optional[str] = None, pred: Optional[str] = None) -> str:
        return self._alu("sub", a, b, imm, dest, pred)

    def mul(self, a: str, b: Optional[str] = None, imm: Optional[int] = None,
            dest: Optional[str] = None, pred: Optional[str] = None) -> str:
        return self._alu("mul", a, b, imm, dest, pred)

    def and_(self, a: str, b: Optional[str] = None, imm: Optional[int] = None,
             dest: Optional[str] = None) -> str:
        return self._alu("and", a, b, imm, dest, None)

    def or_(self, a: str, b: Optional[str] = None, imm: Optional[int] = None,
            dest: Optional[str] = None) -> str:
        return self._alu("or", a, b, imm, dest, None)

    def xor(self, a: str, b: Optional[str] = None, imm: Optional[int] = None,
            dest: Optional[str] = None) -> str:
        return self._alu("xor", a, b, imm, dest, None)

    def shl(self, a: str, imm: int, dest: Optional[str] = None) -> str:
        return self._alu("shl", a, None, imm, dest, None)

    def shr(self, a: str, imm: int, dest: Optional[str] = None) -> str:
        return self._alu("shr", a, None, imm, dest, None)

    def mov(self, src: str, dest: Optional[str] = None,
            pred: Optional[str] = None) -> str:
        dest = dest or self.fresh()
        self.emit(ins.mov(dest, src=src, pred=pred))
        return dest

    def mov_imm(self, value: int, dest: Optional[str] = None,
                pred: Optional[str] = None) -> str:
        dest = dest or self.fresh()
        self.emit(ins.mov(dest, imm=value, pred=pred))
        return dest

    # -- compares -------------------------------------------------------------

    def cmp(self, relation: str, a: str, b: Optional[str] = None,
            imm: Optional[int] = None, dest: Optional[str] = None) -> str:
        dest = dest or self.fresh_pred()
        self.emit(ins.cmp(relation, dest, a, b, imm))
        return dest

    # -- memory ---------------------------------------------------------------

    def load(self, base: str, offset: int = 0, dest: Optional[str] = None,
             pred: Optional[str] = None) -> str:
        dest = dest or self.fresh()
        self.emit(ins.load(dest, base, offset, pred))
        return dest

    def store(self, base: str, src: str, offset: int = 0,
              pred: Optional[str] = None) -> None:
        self.emit(ins.store(base, src, offset, pred))

    def prefetch(self, base: str, offset: int = 0,
                 pred: Optional[str] = None) -> None:
        self.emit(ins.prefetch(base, offset, pred))

    # -- control flow ---------------------------------------------------------

    def br(self, target: str) -> None:
        self.emit(ins.Instruction(op=ins.OP_BR, target=target))

    def br_cond(self, pred: str, target: str) -> None:
        self.emit(ins.Instruction(op=ins.OP_BR_COND, pred=pred,
                                  target=target))

    def call(self, func_name: str, args: Sequence[str] = (),
             ret: Optional[str] = None) -> Optional[str]:
        """Call ``func_name``; move args into place; return result register.

        ``ret`` names the register to copy the callee's return value into;
        pass ``ret=None`` for void calls.
        """
        for i, src in enumerate(args):
            self.emit(ins.mov(regs.arg_register(i), src=src))
        self.emit(ins.Instruction(op=ins.OP_CALL, target=func_name))
        if ret is not None:
            self.emit(ins.mov(ret, src=regs.RET_VALUE))
            return ret
        return None

    def call_fresh(self, func_name: str, args: Sequence[str] = ()) -> str:
        """Call and capture the return value into a fresh register."""
        dest = self.fresh()
        self.call(func_name, args, ret=dest)
        return dest

    def call_indirect(self, func_id_reg: str, args: Sequence[str] = (),
                      ret: Optional[str] = None) -> Optional[str]:
        """Indirect call through a register holding a function id."""
        for i, src in enumerate(args):
            self.emit(ins.mov(regs.arg_register(i), src=src))
        self.emit(ins.Instruction(op=ins.OP_CALL_INDIRECT,
                                  srcs=(func_id_reg,)))
        if ret is not None:
            self.emit(ins.mov(ret, src=regs.RET_VALUE))
            return ret
        return None

    def ret(self, value: Optional[str] = None) -> None:
        if value is not None:
            self.emit(ins.mov(regs.RET_VALUE, src=value))
        self.emit(ins.Instruction(op=ins.OP_RET))

    def halt(self) -> None:
        self.emit(ins.Instruction(op=ins.OP_HALT))

    def nop(self) -> None:
        self.emit(ins.nop())

    # -- SSP opcodes (used by the emitter and by hand-adapted workloads) ------

    def chk_c(self, stub_label: str) -> None:
        self.emit(ins.Instruction(op=ins.OP_CHK_C, target=stub_label))

    def spawn(self, slice_label: str) -> None:
        self.emit(ins.Instruction(op=ins.OP_SPAWN, target=slice_label))

    def lib_store(self, slot: int, src: str) -> None:
        self.emit(ins.Instruction(op=ins.OP_LIB_ST, srcs=(src,), imm=slot))

    def lib_load(self, slot: int, dest: Optional[str] = None) -> str:
        dest = dest or self.fresh()
        self.emit(ins.Instruction(op=ins.OP_LIB_LD, dest=dest, imm=slot))
        return dest

    def kill(self) -> None:
        self.emit(ins.Instruction(op=ins.OP_KILL))

    def rfi(self) -> None:
        self.emit(ins.Instruction(op=ins.OP_RFI))


def build_function(program: Program, name: str, num_params: int = 0,
                   entry_label: str = "entry") -> FunctionBuilder:
    """Create a function in ``program`` and return a builder for it."""
    return FunctionBuilder(program.add_function(name, num_params),
                           entry_label)
