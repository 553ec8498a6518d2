"""Reproduction of "Post-Pass Binary Adaptation for Software-Based
Speculative Precomputation" (Liao et al., PLDI 2002).

Top-level convenience API::

    import repro

    workload = repro.make_workload("mcf", scale="small")
    program = workload.build_program()
    profile = repro.collect_profile(program, workload.build_heap)
    result = repro.SSPPostPassTool().adapt(program, profile)
    stats = repro.simulate(result.program, workload.build_heap(),
                           "inorder")

Subpackages (import each one explicitly, e.g. ``import repro.sim``):
``repro.isa`` (the Itanium-like ISA), ``repro.sim`` (the SMT timing
simulator), ``repro.profiling``, ``repro.analysis``, ``repro.slicing``,
``repro.scheduling``, ``repro.triggers``, ``repro.codegen``,
``repro.tool`` (the post-pass tool), ``repro.workloads`` (the seven
benchmarks), ``repro.runner`` (parallel run orchestration with a
content-addressed result cache) and ``repro.experiments`` (the paper's
evaluation).

The top-level names resolve on first use: ``import repro`` loads no
subpackage, and ``repro.simulate`` imports :mod:`repro.sim` when it is
first read.  So ``import repro.workloads`` (or ``repro.isa``) does not
pull in the simulator, the tool and the runner, and a subpackage is an
attribute of ``repro`` only once something has imported it.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: The paper being reproduced.
PAPER = ("Liao, Wang, Wang, Hoflehner, Lavery, Shen: Post-Pass Binary "
         "Adaptation for Software-Based Speculative Precomputation. "
         "PLDI 2002. DOI 10.1145/512529.512544")

#: Re-exported name -> the subpackage that defines it.
_EXPORTS = {
    "collect_profile": ".profiling",
    "ResultCache": ".runner", "Runner": ".runner", "RunSpec": ".runner",
    "inorder_config": ".sim", "ooo_config": ".sim", "simulate": ".sim",
    "SSPPostPassTool": ".tool", "ToolOptions": ".tool",
    "PAPER_ORDER": ".workloads", "make_workload": ".workloads",
    "workload_names": ".workloads",
}

__all__ = [*_EXPORTS, "PAPER", "__version__"]
__getattr__ = lazy_exports(__name__, _EXPORTS, globals())
