"""Itanium-like ISA: instructions, programs, builder, memory, semantics."""

from .instructions import (
    Instruction,
    alu,
    cmp,
    load,
    mov,
    nop,
    prefetch,
    store,
)
from .program import BasicBlock, Function, Program, ProgramError
from .builder import FunctionBuilder, build_function
from .memory import Heap, HEAP_BASE, WORD
from .asm import (
    AsmError,
    load_program,
    parse_assembly,
    round_trip,
    save_program,
)
from .interp import (
    ExecutionError,
    FunctionalInterpreter,
    ThreadState,
    spawn_thread,
)

__all__ = [
    "Instruction", "alu", "cmp", "load", "mov", "nop", "prefetch", "store",
    "BasicBlock", "Function", "Program", "ProgramError",
    "FunctionBuilder", "build_function",
    "Heap", "HEAP_BASE", "WORD",
    "ExecutionError", "FunctionalInterpreter", "ThreadState", "spawn_thread",
    "AsmError", "load_program", "parse_assembly", "round_trip",
    "save_program",
]
