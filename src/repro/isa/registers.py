"""Register name spaces and the calling convention of the research ISA.

The ISA is modelled after the Itanium register model the paper assumes
(Section 2.1, Table 1): 128 integer registers, 64 predicate registers per
hardware thread context.  Registers are referred to by their string names
(``"r4"``, ``"p6"``); the integer register ``r0`` and the predicate ``p0``
are hardwired to 0 and True respectively, as on Itanium.

The calling convention mirrors Itanium's stacked-register convention in a
simplified form:

* arguments are passed in ``r32``, ``r33``, ... (``arg_register(i)``),
* the return value is passed in ``r8`` (``RET_VALUE``),
* ``r12`` is the stack pointer (``STACK_POINTER``).

Virtual registers created by :class:`repro.isa.builder.FunctionBuilder` are
drawn from the caller-local range starting at ``FIRST_TEMP``.
"""

from __future__ import annotations

NUM_INT_REGISTERS = 128
NUM_PRED_REGISTERS = 64

ZERO = "r0"
RET_VALUE = "r8"
STACK_POINTER = "r12"
TRUE_PREDICATE = "p0"

FIRST_ARG = 32
MAX_ARGS = 8
FIRST_TEMP = 40

#: Number of live-in buffer slots per spawn site (the RSE backing-store
#: region is small; Table 2 shows slices need < 8 live-ins).
LIB_SLOTS = 16


def arg_register(index: int) -> str:
    """Return the register carrying positional argument ``index``."""
    if not 0 <= index < MAX_ARGS:
        raise ValueError(f"argument index {index} out of range [0, {MAX_ARGS})")
    return f"r{FIRST_ARG + index}"


def temp_register(index: int) -> str:
    """Return the ``index``-th temporary register name."""
    reg = FIRST_TEMP + index
    if reg >= NUM_INT_REGISTERS:
        raise ValueError(f"ran out of integer registers (requested temp {index})")
    return f"r{reg}"


def pred_register(index: int) -> str:
    """Return the ``index``-th allocatable predicate register (p1 upward)."""
    reg = 1 + index
    if reg >= NUM_PRED_REGISTERS:
        raise ValueError(f"ran out of predicate registers (requested {index})")
    return f"p{reg}"


def is_int_register(name: str) -> bool:
    """True if ``name`` names an integer register."""
    return name.startswith("r") and name[1:].isdigit()


def is_pred_register(name: str) -> bool:
    """True if ``name`` names a predicate register."""
    return name.startswith("p") and name[1:].isdigit()
