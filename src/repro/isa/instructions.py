"""Instruction set of the research Itanium-like ISA.

Every instruction the simulator executes — and that the post-pass tool
analyses and rewrites — is an :class:`Instruction`.  The opcode vocabulary
covers the subset of Itanium the paper's tool needs:

* integer ALU operations and moves,
* compares writing predicate registers,
* loads, stores and the non-binding ``lfetch`` prefetch,
* predicated branches, calls (direct and indirect) and returns,
* the SSP-specific opcodes of Section 3.4.2: ``chk.c`` (trigger check),
  ``spawn`` (bind a speculative thread to a free context), ``lib.st`` /
  ``lib.ld`` (live-in buffer transfer) and ``kill`` (thread self-kill),
* ``rfi`` — return from the lightweight recovery stub back to the
  instruction after the ``chk.c`` that raised it,
* ``nop`` and ``halt``.

Instructions are *mutable* value objects: the post-pass tool patches nops
into ``chk.c`` instructions in place, exactly as the paper's binary
adaptation replaces a nop slot (Figure 7).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Tuple

# ---------------------------------------------------------------------------
# Opcodes
# ---------------------------------------------------------------------------

ALU_OPS = frozenset({"add", "sub", "mul", "and", "or", "xor", "shl", "shr"})
CMP_RELATIONS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})

OP_MOV = "mov"
OP_CMP = "cmp"
OP_LOAD = "ld"
OP_STORE = "st"
OP_PREFETCH = "lfetch"
OP_BR = "br"
OP_BR_COND = "br.cond"
OP_CALL = "br.call"
OP_CALL_INDIRECT = "br.call.ind"
OP_RET = "br.ret"
OP_CHK_C = "chk.c"
OP_SPAWN = "spawn"
OP_LIB_ST = "lib.st"
OP_LIB_LD = "lib.ld"
OP_KILL = "kill"
OP_RFI = "rfi"
OP_NOP = "nop"
OP_HALT = "halt"

BRANCH_OPS = frozenset({OP_BR, OP_BR_COND, OP_CALL, OP_CALL_INDIRECT, OP_RET})
MEMORY_OPS = frozenset({OP_LOAD, OP_STORE, OP_PREFETCH})
SSP_OPS = frozenset({OP_CHK_C, OP_SPAWN, OP_LIB_ST, OP_LIB_LD, OP_KILL, OP_RFI})

ALL_OPS = (
    ALU_OPS
    | BRANCH_OPS
    | MEMORY_OPS
    | SSP_OPS
    | {OP_MOV, OP_CMP, OP_NOP, OP_HALT}
)

#: Fixed execution latencies (cycles) for non-memory operations.  Memory
#: operation latency is determined by the cache hierarchy at run time
#: (Section 3.2: "The latency of a memory operation is determined by cache
#: profiling, and the machine model provides latency estimates for other
#: instructions").
FIXED_LATENCY = {
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "shl": 1, "shr": 1,
    "mul": 3,
    OP_MOV: 1, OP_CMP: 1,
    OP_STORE: 1, OP_PREFETCH: 1,
    OP_BR: 1, OP_BR_COND: 1, OP_CALL: 1, OP_CALL_INDIRECT: 1, OP_RET: 1,
    OP_CHK_C: 1, OP_SPAWN: 1, OP_LIB_ST: 1, OP_LIB_LD: 1, OP_KILL: 1,
    OP_RFI: 1, OP_NOP: 1, OP_HALT: 1,
}


#: The uid the next :class:`Instruction` receives: the process counter,
#: or the counter of the innermost :func:`numbered_after` block.
_NEXT_UID = [1]


def _next_uid() -> int:
    uid = _NEXT_UID[0]
    _NEXT_UID[0] = uid + 1
    return uid


@contextmanager
def numbered_after(existing: Iterable["Instruction"] = ()
                   ) -> Iterator[None]:
    """Number the instructions created inside the block from the largest
    uid in ``existing`` + 1 (from 1 when it is empty).

    Profiles, delinquent-load lists and per-load statistics name a load
    by its uid, so a program's uids must depend on the program alone,
    not on what its process built before it: ``Workload.build_program``
    builds each program in ``numbered_after()``, and
    ``SSPPostPassTool.adapt`` numbers what it adds after the program's
    own instructions.  On exit the outer counter resumes above every uid
    the block handed out, so instructions built outside any block never
    collide with one built inside.
    """
    saved = _NEXT_UID[0]
    _NEXT_UID[0] = max((i.uid for i in existing), default=0) + 1
    try:
        yield
    finally:
        _NEXT_UID[0] = max(saved, _NEXT_UID[0])


@dataclass
class Instruction:
    """One machine instruction.

    Attributes:
        op: opcode string (one of :data:`ALL_OPS`).
        dest: destination register (int or predicate), or ``None``.
        srcs: tuple of source register names.
        imm: immediate operand (ALU second operand, load/store displacement,
            live-in buffer slot, or ``mov`` immediate), or ``None``.
        target: control-flow target — a label for branches / ``chk.c`` /
            ``spawn``, a function name for calls.
        pred: qualifying predicate register; the instruction is a no-op when
            the predicate is false (Itanium predication).  ``None`` means
            always execute.
        relation: comparison relation for ``cmp``.
        uid: program-unique id, stable across rewrites; profiling and the
            dependence graph key on it (see :func:`numbered_after`).
        addr: linear "binary address", assigned by ``Program.finalize``.
    """

    op: str
    dest: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    imm: Optional[int] = None
    target: Optional[str] = None
    pred: Optional[str] = None
    relation: Optional[str] = None
    uid: int = field(default_factory=_next_uid)
    addr: int = -1

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown opcode: {self.op!r}")
        if self.op == OP_CMP and self.relation not in CMP_RELATIONS:
            raise ValueError(f"cmp needs a relation in {sorted(CMP_RELATIONS)}")

    # -- classification helpers used throughout analyses and the simulator --

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    @property
    def is_load(self) -> bool:
        return self.op == OP_LOAD

    @property
    def is_store(self) -> bool:
        return self.op == OP_STORE

    @property
    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS

    @property
    def is_terminator(self) -> bool:
        """True for instructions that end a basic block unconditionally."""
        return self.op in (OP_BR, OP_RET, OP_HALT, OP_KILL, OP_RFI)

    @property
    def reads(self) -> Tuple[str, ...]:
        """All register names read by this instruction (incl. predicate)."""
        if self.pred is not None:
            return self.srcs + (self.pred,)
        return self.srcs

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.dest,) if self.dest is not None else ()

    def fixed_latency(self) -> int:
        """Execution latency for non-load ops; loads ask the cache."""
        return FIXED_LATENCY.get(self.op, 1)

    def copy(self) -> "Instruction":
        """A fresh instruction with identical operands but a new uid."""
        return Instruction(
            op=self.op, dest=self.dest, srcs=self.srcs, imm=self.imm,
            target=self.target, pred=self.pred, relation=self.relation,
        )

    # -- textual form, used by the disassembler and error messages ----------

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.pred is not None:
            parts.append(f"({self.pred})")
        parts.append(self.op if self.op != OP_CMP else f"cmp.{self.relation}")
        ops = []
        if self.dest is not None:
            ops.append(self.dest)
        ops.extend(self.srcs)
        if self.imm is not None:
            ops.append(str(self.imm))
        if self.target is not None:
            ops.append(self.target)
        if ops:
            parts.append(" " + ", ".join(ops))
        return "".join(parts)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def alu(op: str, dest: str, a: str, b: Optional[str] = None,
        imm: Optional[int] = None, pred: Optional[str] = None) -> Instruction:
    """Build an ALU instruction ``dest = a <op> (b | imm)``."""
    if op not in ALU_OPS:
        raise ValueError(f"{op!r} is not an ALU op")
    srcs = (a,) if b is None else (a, b)
    if b is None and imm is None:
        raise ValueError("ALU op needs a second register or an immediate")
    return Instruction(op=op, dest=dest, srcs=srcs, imm=imm, pred=pred)


def mov(dest: str, src: Optional[str] = None, imm: Optional[int] = None,
        pred: Optional[str] = None) -> Instruction:
    """``dest = src`` or ``dest = imm``."""
    if (src is None) == (imm is None):
        raise ValueError("mov takes exactly one of src, imm")
    srcs = (src,) if src is not None else ()
    return Instruction(op=OP_MOV, dest=dest, srcs=srcs, imm=imm, pred=pred)


def cmp(relation: str, dest_pred: str, a: str, b: Optional[str] = None,
        imm: Optional[int] = None, pred: Optional[str] = None) -> Instruction:
    """``dest_pred = a <relation> (b | imm)``."""
    srcs = (a,) if b is None else (a, b)
    if b is None and imm is None:
        raise ValueError("cmp needs a second register or an immediate")
    return Instruction(op=OP_CMP, dest=dest_pred, srcs=srcs, imm=imm,
                       relation=relation, pred=pred)


def load(dest: str, base: str, offset: int = 0,
         pred: Optional[str] = None) -> Instruction:
    """``dest = MEM[base + offset]``."""
    return Instruction(op=OP_LOAD, dest=dest, srcs=(base,), imm=offset,
                       pred=pred)


def store(base: str, src: str, offset: int = 0,
          pred: Optional[str] = None) -> Instruction:
    """``MEM[base + offset] = src``."""
    return Instruction(op=OP_STORE, srcs=(base, src), imm=offset, pred=pred)


def prefetch(base: str, offset: int = 0,
             pred: Optional[str] = None) -> Instruction:
    """Non-binding prefetch of ``MEM[base + offset]`` (Itanium lfetch)."""
    return Instruction(op=OP_PREFETCH, srcs=(base,), imm=offset, pred=pred)


def nop() -> Instruction:
    return Instruction(op=OP_NOP)
