"""Profile collection: the two-pass flow of Figure 1.

"The first compilation pass generates the regular binary.  In the second
pass, we use the profiling information collected from running the original
binary to enhance the binary for SSP."

One profiling run is made: a timing run on the baseline in-order model
(``chk.c`` disabled).  It yields the cache profile and the baseline cycle
count, and, because the simulator counts the main thread's issues exactly
as :class:`~repro.isa.interp.FunctionalInterpreter` counts steps, the
per-instruction execution counts and the dynamic call graph of indirect
calls too.  For a binary that does not speculate yet, the run is also
recorded as the reference run the tool's verify would otherwise repeat.

The run mutates its freshly initialised heap (programs mutate their data),
which is why the API takes a ``heap_factory``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..codegen.verify import ReferenceRun, _architectural_outcome, \
    speculation_free
from ..isa.memory import Heap
from ..isa.program import Program
from ..sim.config import MachineConfig, inorder_config
from ..sim.inorder import InOrderSimulator
from .profile import ProgramProfile


def collect_profile(program: Program,
                    heap_factory: Callable[[], Heap],
                    config: MachineConfig = None,
                    on_run: Optional[Callable[[InOrderSimulator],
                                              None]] = None
                    ) -> ProgramProfile:
    """Profile ``program`` and return the tool's input feedback.

    ``on_run``, when given, sees the finished simulator (its statistics
    and final heap) before it is dropped; the runner uses it to serve
    the in-order base run from this run instead of simulating again.
    """
    config = config or inorder_config()
    if not program.finalized:
        program.finalize()

    heap = heap_factory()
    initial_digest = heap.digest() if speculation_free(program) else None
    sim = InOrderSimulator(program, heap, config, spawning=False)
    stats = sim.run()
    reference = None
    if initial_digest is not None:
        reference = ReferenceRun(
            heap_digest=initial_digest,
            outcome=_architectural_outcome(sim.main_state),
            final_digest=heap.digest(),
            decode_version=program._decode_version)
    if on_run is not None:
        on_run(sim)

    return ProgramProfile(
        program=program,
        load_stats=dict(sim.memory.load_stats),
        exec_counts=sim.exec_counts,
        indirect_targets=sim.indirect_targets,
        baseline_cycles=stats.cycles,
        l1_latency=config.l1.latency,
        reference=reference,
    )
