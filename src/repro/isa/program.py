"""Program representation: basic blocks, functions, whole programs.

The post-pass tool "reads in the compiler intermediate representation (IR)
and the control flow graph" where "the IR exactly matches the hardware
instructions in the binary" (Section 2.2).  This module is that
representation: a :class:`Program` is a set of :class:`Function` objects made
of :class:`BasicBlock` lists, and after :meth:`Program.finalize` it is *also*
the binary — a flat instruction array with resolved branch targets that the
simulator executes directly.

Labels are local to their function.  A fully-qualified label
``"func::label"`` may be used from anywhere (the SSP emitter uses this for
slice blocks attached at the end of a function).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from .instructions import (
    Instruction,
    OP_BR,
    OP_BR_COND,
    OP_CALL,
    OP_CHK_C,
    OP_SPAWN,
)


class ProgramError(Exception):
    """Raised for malformed programs (unknown labels, bad structure)."""


class BasicBlock:
    """A straight-line sequence of instructions with a single entry label."""

    def __init__(self, label: str, instrs: Optional[List[Instruction]] = None):
        self.label = label
        self.instrs: List[Instruction] = list(instrs) if instrs else []

    def append(self, instr: Instruction) -> Instruction:
        self.instrs.append(instr)
        return instr

    @property
    def terminator(self) -> Optional[Instruction]:
        """The final instruction if it transfers control, else ``None``."""
        if self.instrs and (self.instrs[-1].is_branch
                            or self.instrs[-1].is_terminator):
            return self.instrs[-1]
        return None

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BasicBlock({self.label!r}, {len(self.instrs)} instrs)"


class Function:
    """A named function: an ordered list of basic blocks.

    The block order is the layout order in the binary; fall-through edges go
    to the next block in this order.
    """

    def __init__(self, name: str, num_params: int = 0):
        self.name = name
        self.num_params = num_params
        self.blocks: List[BasicBlock] = []
        self._by_label: Dict[str, BasicBlock] = {}

    def add_block(self, label: str, index: Optional[int] = None) -> BasicBlock:
        """Create and append (or insert) a new empty block."""
        if label in self._by_label:
            raise ProgramError(f"duplicate label {label!r} in {self.name}")
        block = BasicBlock(label)
        if index is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(index, block)
        self._by_label[label] = block
        return block

    def remove_block(self, label: str) -> None:
        """Remove an (empty) block — used by the builder to drop unused
        auto-generated fall-through blocks."""
        block = self.block(label)
        if block.instrs:
            raise ProgramError(f"refusing to remove non-empty block {label!r}")
        self.blocks.remove(block)
        del self._by_label[label]

    def block(self, label: str) -> BasicBlock:
        try:
            return self._by_label[label]
        except KeyError:
            raise ProgramError(f"no block {label!r} in {self.name}") from None

    def has_block(self, label: str) -> bool:
        return label in self._by_label

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ProgramError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def instructions(self) -> Iterable[Instruction]:
        for block in self.blocks:
            yield from block.instrs

    def successors(self, block: BasicBlock) -> List[str]:
        """Labels of CFG successor blocks (intra-procedural).

        Calls are treated as falling through (the call returns); ``chk.c``
        is treated as a nop edge-wise — its recovery stub is not part of the
        main thread's CFG for analysis purposes, matching the paper's view
        that the adaptation does not perturb main-thread control flow.
        """
        succs: List[str] = []
        term = block.instrs[-1] if block.instrs else None
        layout_index = self.blocks.index(block)
        falls_through = True
        if term is not None:
            # A target qualified with this function's own name
            # (``name::label``) is the local label.
            target = term.target
            if target is not None and target.startswith(self.name + "::"):
                target = target[len(self.name) + 2:]
            if term.op == OP_BR:
                succs.append(target)
                falls_through = False
            elif term.op == OP_BR_COND:
                succs.append(target)
            elif term.is_terminator:
                falls_through = False
        if falls_through and layout_index + 1 < len(self.blocks):
            succs.append(self.blocks[layout_index + 1].label)
        return succs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Function({self.name!r}, {len(self.blocks)} blocks)"


class Program:
    """A whole program: functions plus, after :meth:`finalize`, the binary.

    Finalisation flattens all functions into one linear instruction array
    (``code``), resolves labels and call targets to absolute indices
    (``branch_target``), assigns binary addresses, and numbers functions for
    indirect calls.  Analyses and both timing simulators work on the
    finalised form.
    """

    def __init__(self, entry: str = "main"):
        self.entry = entry
        self.functions: Dict[str, Function] = {}
        #: lfetch uid -> delinquent-load uid it prefetches for, filled by
        #: the SSP emitter; the simulators hand it to the memory system so
        #: prefetch coverage/accuracy/timeliness can be attributed per
        #: delinquent load.
        self.prefetch_sources: Dict[int, int] = {}
        # Populated by finalize():
        self.code: List[Instruction] = []
        self.branch_target: Dict[int, int] = {}
        self.index_of_label: Dict[str, int] = {}
        self.function_of_index: List[str] = []
        self.block_of_index: List[str] = []
        self.function_entry: Dict[str, int] = {}
        self.function_id: Dict[str, int] = {}
        self.function_by_id: List[str] = []
        self._finalized = False

    # -- construction --------------------------------------------------------

    def add_function(self, name: str, num_params: int = 0) -> Function:
        if name in self.functions:
            raise ProgramError(f"duplicate function {name!r}")
        func = Function(name, num_params)
        self.functions[name] = func
        self._finalized = False
        return func

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise ProgramError(f"no function {name!r}") from None

    def instructions(self) -> Iterable[Instruction]:
        for func in self.functions.values():
            yield from func.instructions()

    def find_instruction(self, uid: int) -> Tuple[Function, BasicBlock, int]:
        """Locate an instruction by uid: (function, block, index in block)."""
        for func in self.functions.values():
            for block in func.blocks:
                for i, instr in enumerate(block.instrs):
                    if instr.uid == uid:
                        return func, block, i
        raise ProgramError(f"no instruction with uid {uid}")

    # -- finalisation ---------------------------------------------------------

    def _qualified(self, func: Function, label: str) -> str:
        return label if "::" in label else f"{func.name}::{label}"

    def finalize(self) -> "Program":
        """Flatten into the executable binary form.  Idempotent."""
        self.code = []
        self.branch_target = {}
        self.index_of_label = {}
        self.function_of_index = []
        self.block_of_index = []
        self.function_entry = {}
        self.function_id = {}
        self.function_by_id = []

        for fid, (name, func) in enumerate(self.functions.items()):
            self.function_id[name] = fid
            self.function_by_id.append(name)
            if func.blocks:
                self.function_entry[name] = len(self.code)
            for block in func.blocks:
                self.index_of_label[self._qualified(func, block.label)] = len(
                    self.code)
                for instr in block.instrs:
                    instr.addr = len(self.code)
                    self.code.append(instr)
                    self.function_of_index.append(name)
                    self.block_of_index.append(block.label)

        for idx, instr in enumerate(self.code):
            if instr.op in (OP_BR, OP_BR_COND, OP_CHK_C, OP_SPAWN):
                func_name = self.function_of_index[idx]
                key = instr.target if "::" in (instr.target or "") else \
                    f"{func_name}::{instr.target}"
                if key not in self.index_of_label:
                    raise ProgramError(
                        f"unresolved label {instr.target!r} in {func_name}")
                self.branch_target[idx] = self.index_of_label[key]
            elif instr.op == OP_CALL:
                if instr.target not in self.function_entry:
                    raise ProgramError(f"call to unknown {instr.target!r}")
                self.branch_target[idx] = self.function_entry[instr.target]
        self._finalized = True
        # Invalidate any pre-decoded issue table (repro.isa.decode): the
        # tool patches instructions in place and re-finalises, and the
        # decode cache keys on this counter.
        self._decode_version = getattr(self, "_decode_version", 0) + 1
        return self

    @property
    def finalized(self) -> bool:
        return self._finalized

    def label_index(self, func_name: str, label: str) -> int:
        """Absolute code index of ``label`` in ``func_name``."""
        key = label if "::" in label else f"{func_name}::{label}"
        try:
            return self.index_of_label[key]
        except KeyError:
            raise ProgramError(f"unknown label {key!r}") from None

    # -- cloning --------------------------------------------------------------

    def clone(self) -> "Program":
        """Deep copy preserving instruction uids.

        The post-pass tool clones the input binary before adaptation so the
        original remains runnable; uids are preserved so that profiles
        gathered on the original still name the same instructions in the
        clone (the paper's tool likewise keys profile data to binary
        addresses that survive adaptation).
        """
        other = Program(entry=self.entry)
        other.prefetch_sources = dict(self.prefetch_sources)
        for name, func in self.functions.items():
            new_func = other.add_function(name, func.num_params)
            for block in func.blocks:
                new_block = new_func.add_block(block.label)
                for instr in block.instrs:
                    new_block.append(dataclasses.replace(instr, addr=-1))
        return other

    # -- pretty printing ------------------------------------------------------

    def disassemble(self) -> str:
        """A readable listing of the whole program."""
        lines: List[str] = []
        for func in self.functions.values():
            lines.append(f".func {func.name} ({func.num_params} params)")
            for block in func.blocks:
                lines.append(f"{block.label}:")
                for instr in block.instrs:
                    addr = f"{instr.addr:5d}  " if instr.addr >= 0 else "       "
                    lines.append(f"  {addr}{instr}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = sum(len(b) for f in self.functions.values() for b in f.blocks)
        return f"Program({len(self.functions)} functions, {n} instrs)"
