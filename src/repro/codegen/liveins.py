"""Live-in transfer code generation (Sections 2.1 and 3.4.2).

The machine has no flash-copy between register files; live-ins travel
through the on-chip live-in buffer (the RSE backing-store spill area).  The
*stub block*, run by the main thread as chk.c recovery code, copies live-in
registers into the buffer; the *slice block*, run by the spawned thread,
copies them out into its private register file.  A chaining thread re-fills
the buffer with updated values before spawning its successor.
"""

from __future__ import annotations

from typing import Dict, List

from ..isa.instructions import Instruction
from ..isa.registers import LIB_SLOTS


class LiveInLayout:
    """Deterministic register -> live-in-buffer slot assignment."""

    def __init__(self, live_ins: List[str]):
        if len(live_ins) > LIB_SLOTS:
            raise ValueError(
                f"slice needs {len(live_ins)} live-ins; the live-in buffer "
                f"has {LIB_SLOTS} slots — the region selector should have "
                "rejected this slice")
        self.registers = list(live_ins)
        self.slot_of: Dict[str, int] = {
            reg: i for i, reg in enumerate(live_ins)}

    def __len__(self) -> int:
        return len(self.registers)

    def copy_in_code(self) -> List[Instruction]:
        """lib.st sequence: registers -> buffer (stub / pre-spawn code)."""
        return [Instruction(op="lib.st", srcs=(reg,), imm=slot)
                for slot, reg in enumerate(self.registers)]

    def copy_out_code(self) -> List[Instruction]:
        """lib.ld sequence: buffer -> registers (slice entry code)."""
        return [Instruction(op="lib.ld", dest=reg, imm=slot)
                for slot, reg in enumerate(self.registers)]
