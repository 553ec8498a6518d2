"""Cross-model differential oracle.

The three execution engines — the functional interpreter, the in-order SMT
pipeline and the out-of-order pipeline — drive one ISA three ways.  All
three call the same step closures (:mod:`repro.isa.decode`), so this
oracle checks what each engine does around the step (speculation,
timing, retirement), not the step itself; the test suite holds the
closures equal to an independent statement of the semantics
(``execute`` in ``tests/sim_reference.py``).
Speculative precomputation must be architecturally invisible, so all three
must agree on what an adapted binary *computes*; they are only allowed to
disagree on how long it takes.  The oracle runs one workload through every
engine and asserts:

* **architectural results** — the final main-thread register/predicate
  state (:func:`repro.codegen.verify._architectural_outcome`) and the
  workload's checked heap output are identical across interpreter,
  in-order and OOO runs of the adapted binary;
* **retired-instruction counts** — both timing models retire exactly
  ``interp.steps`` main-thread instructions net of recovery-stub overhead
  (``main_instructions - main_stub_instructions``); stubs are the only
  legal difference a fired ``chk.c`` may introduce;
* **adapted vs. unadapted** — the adapted binary's main thread computes
  the same result as the original (interpreter equality, plus the
  forced-fire :func:`repro.codegen.verify.differential_check` shadow run
  so the p-slices really execute); when every trigger replaced a ``nop``
  the adapted step count equals the original's *exactly*.

Budget variants re-run the timing models with aggressive runaway-slice
containment budgets enabled — killing speculative threads mid-flight must
not perturb any of the above.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..codegen.verify import _architectural_outcome, differential_check
from ..isa.instructions import OP_CHK_C
from ..isa.interp import FunctionalInterpreter
from ..isa.program import Program
from ..runner.worker import WorkloadArtifacts
from ..sim.machine import MODELS, make_config

#: Timing models the oracle exercises.
TIMING_MODELS = ("inorder", "ooo")

#: Aggressive containment budgets for the budget-enabled variant: small
#: enough that long slices are killed mid-flight on the tiny scale.
BUDGET_OVERRIDES = {"spec_instruction_budget": 48, "spec_cycle_budget": 400}


@dataclass
class OracleResult:
    """Outcome of the oracle for one workload."""

    workload: str
    scale: str
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: main-thread retired instructions net of stubs, per engine.
    retired: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, name: str, condition: bool, detail: str) -> None:
        if condition:
            self.checks.append(name)
        else:
            self.failures.append(f"{name}: {detail}")

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = (f"{self.workload:<12} {self.scale:<8} {status} "
                f"({len(self.checks)} checks)")
        return "\n".join([line] + [f"  {f}" for f in self.failures])


def _inserted_instructions(original: Program, adapted: Program) -> int:
    """Main-code instructions adaptation *added* (vs. replacing nops).

    Appended stub/slice blocks and speculative clone functions are the
    expected additions; beyond those, block lengths only grow when a
    ``chk.c`` was inserted rather than overwriting a ``nop`` slot.  When
    this is zero the adapted main thread retires exactly as many
    instructions as the original.
    """
    inserted = 0
    for name, func in original.functions.items():
        new_func = adapted.functions.get(name)
        if new_func is None:
            continue
        lengths = {b.label: len(b.instrs) for b in func.blocks}
        for block in new_func.blocks:
            old = lengths.get(block.label)
            if old is not None:
                inserted += max(0, len(block.instrs) - old)
    return inserted


def _run_model(model: str, program: Program, workload,
               overrides: Optional[Dict[str, Any]] = None):
    """One timing-model run; returns (simulator, stats) after output check."""
    config = make_config(model)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    _, sim_cls = MODELS[model]
    heap = workload.build_heap()
    sim = sim_cls(program, heap, config, True, 200_000_000)
    stats = sim.run()
    workload.check_output(heap)
    return sim, stats


def run_oracle(name: str, scale: str = "tiny", *,
               budgets: bool = False,
               artifacts: Optional[WorkloadArtifacts] = None
               ) -> OracleResult:
    """Run the full differential oracle for one workload."""
    artifacts = artifacts or WorkloadArtifacts(name, scale)
    workload = artifacts.workload
    original = artifacts.program
    result = OracleResult(workload=name, scale=scale)

    adapted = artifacts.tool_result.adapted
    if adapted is None:
        result.expect("tool.adapted", False,
                      "adaptation degraded to a no-op: "
                      + artifacts.tool_result.guard.summary())
        return result
    adapted = adapted.program

    # Interpreter runs: unadapted reference, then adapted (chk.c inert).
    heap = workload.build_heap()
    interp = FunctionalInterpreter(original, heap)
    ref_state = interp.run(count=False)
    workload.check_output(heap)
    ref_outcome = _architectural_outcome(ref_state)
    ref_steps = interp.steps

    heap = workload.build_heap()
    interp = FunctionalInterpreter(adapted, heap)
    adapted_state = interp.run(count=False)
    workload.check_output(heap)
    adapted_outcome = _architectural_outcome(adapted_state)
    adapted_steps = interp.steps

    result.expect(
        "interp.adapted-vs-unadapted", adapted_outcome == ref_outcome,
        "adapted binary computes a different main-thread state")
    inserted = _inserted_instructions(original, adapted)
    if inserted == 0:
        result.expect(
            "interp.steps-exact", adapted_steps == ref_steps,
            f"every trigger replaced a nop, yet the adapted binary "
            f"retires {adapted_steps} steps vs. {ref_steps} original")
    else:
        result.expect(
            "interp.steps-inserted", adapted_steps >= ref_steps,
            f"{inserted} inserted chk.c, yet steps shrank "
            f"({adapted_steps} < {ref_steps})")
    result.retired["interp"] = adapted_steps

    # Forced-fire shadow equivalence: the p-slices really run.
    report = differential_check(original, adapted, workload.build_heap)
    result.expect("shadow.equivalent", report.equivalent,
                  report.reason or "shadow divergence")

    # Timing models on the adapted binary, speculation live.
    variants = [("", None)]
    if budgets:
        variants.append(("+budgets", BUDGET_OVERRIDES))
    for suffix, overrides in variants:
        for model in TIMING_MODELS:
            tag = model + suffix
            try:
                sim, stats = _run_model(model, adapted, workload,
                                        overrides)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                result.expect(f"{tag}.run", False, f"{exc!r}")
                continue
            outcome = _architectural_outcome(sim.main_state)
            result.expect(
                f"{tag}.outcome", outcome == ref_outcome,
                "final main-thread state diverges from the interpreter")
            net = stats.main_instructions - stats.main_stub_instructions
            result.retired[tag] = net
            result.expect(
                f"{tag}.retired", net == adapted_steps,
                f"retires {stats.main_instructions} main instructions "
                f"({stats.main_stub_instructions} in stubs): net {net} "
                f"!= interpreter {adapted_steps}")
    return result


def count_inserted_triggers(adapted: Program) -> int:
    """Number of ``chk.c`` instructions in an adapted binary (reporting)."""
    return sum(1 for func in adapted.functions.values()
               for block in func.blocks
               for i in block.instrs if i.op == OP_CHK_C)
