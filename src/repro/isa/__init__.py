"""Itanium-like ISA: instructions, programs, builder, memory, semantics.

The names below resolve on first use (PEP 562), so a module that needs
one constant (``repro.isa.registers``) does not load the assembler and
the builder.
"""

from .._lazy import lazy_exports

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "Instruction": ".instructions", "alu": ".instructions",
    "cmp": ".instructions", "load": ".instructions", "mov": ".instructions",
    "nop": ".instructions", "prefetch": ".instructions",
    "store": ".instructions",
    "BasicBlock": ".program", "Function": ".program", "Program": ".program",
    "ProgramError": ".program",
    "FunctionBuilder": ".builder", "build_function": ".builder",
    "Heap": ".memory", "HEAP_BASE": ".memory", "WORD": ".memory",
    "ExecutionError": ".interp", "FunctionalInterpreter": ".interp",
    "ThreadState": ".interp", "spawn_thread": ".interp",
    "AsmError": ".asm", "load_program": ".asm", "parse_assembly": ".asm",
    "round_trip": ".asm", "save_program": ".asm",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS, globals())
