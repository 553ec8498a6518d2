"""Profile collection: the two-pass flow of Figure 1.

"The first compilation pass generates the regular binary.  In the second
pass, we use the profiling information collected from running the original
binary to enhance the binary for SSP."

Two profiling runs are made:

1. a timing run on the baseline in-order model (``chk.c`` disabled) for the
   cache profile and the baseline cycle count, and
2. a functional run for exact per-instruction execution counts and the
   dynamic call graph of indirect calls.  For a binary that does not
   speculate yet, this run is also recorded as the reference run the
   tool's differential verify would otherwise repeat.

Both runs need their own freshly initialised heap (programs mutate their
data), which is why the API takes a ``heap_factory``.
"""

from __future__ import annotations

from typing import Callable

from ..codegen.verify import ReferenceRun, _architectural_outcome, \
    speculation_free
from ..isa.interp import FunctionalInterpreter
from ..isa.memory import Heap
from ..isa.program import Program
from ..sim.config import MachineConfig, inorder_config
from ..sim.inorder import InOrderSimulator
from .profile import ProgramProfile


def collect_profile(program: Program,
                    heap_factory: Callable[[], Heap],
                    config: MachineConfig = None) -> ProgramProfile:
    """Profile ``program`` and return the tool's input feedback."""
    config = config or inorder_config()
    if not program.finalized:
        program.finalize()

    sim = InOrderSimulator(program, heap_factory(), config, spawning=False)
    stats = sim.run()

    heap = heap_factory()
    initial_digest = heap.digest() if speculation_free(program) else None
    interp = FunctionalInterpreter(program, heap)
    final = interp.run()
    reference = None
    if initial_digest is not None:
        reference = ReferenceRun(
            heap_digest=initial_digest,
            outcome=_architectural_outcome(final),
            final_digest=heap.digest(),
            decode_version=program._decode_version)

    return ProgramProfile(
        program=program,
        load_stats=dict(sim.memory.load_stats),
        exec_counts=dict(interp.exec_counts),
        indirect_targets=dict(interp.indirect_targets),
        baseline_cycles=stats.cycles,
        l1_latency=config.l1.latency,
        reference=reference,
    )
