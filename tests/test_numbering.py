"""Instruction numbering: a spec's result depends on the spec alone.

Profiles, delinquent-load lists, per-load ``SimStats`` rows and
``perfect_load_uids`` overrides all name a load by its instruction uid.
``Workload.build_program`` numbers every program from 1 and
``SSPPostPassTool.adapt`` numbers its additions from the program's
largest uid + 1, so the same spec gives the same ``SimStats.to_dict()``
bytes in every process, whatever that process built before it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.isa.instructions import Instruction, nop, numbered_after
from repro.runner import Runner, RunSpec
from repro.tool.postpass import SSPPostPassTool
from repro.profiling.collect import collect_profile
from repro.workloads import PAPER_ORDER, make_workload

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC_DIR), REPRO_NO_CACHE="1")


def _fresh_python(code: str, *args: str) -> str:
    """Last stdout line of ``code`` run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=ENV,
                         capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


class TestNumberedAfter:
    def test_block_numbers_after_the_existing_instructions(self):
        with numbered_after():
            program = [nop() for _ in range(3)]
        with numbered_after(program):
            added = nop().uid
        assert [i.uid for i in program] == [1, 2, 3] and added == 4

    def test_outside_uids_resume_above_every_block(self):
        far = Instruction(op="nop", uid=nop().uid + 1000)
        with numbered_after([far]):
            inside = nop().uid
        assert inside == far.uid + 1
        assert nop().uid > inside
        with numbered_after():
            nop()
        # A small block never pulls the outer counter back down.
        assert nop().uid > inside

    def test_nested_block_does_not_rewind_the_outer_one(self):
        with numbered_after():
            first = nop().uid
            with numbered_after([Instruction(op="nop", uid=99)]):
                nop()
            after = nop().uid
        assert first == 1 and after == 101

    def test_program_uids_ignore_build_history(self):
        alone = make_workload("mcf", "tiny").build_program()
        for name in ("em3d", "health", "mst"):
            make_workload(name, "tiny").build_program()
        nop()
        again = make_workload("mcf", "tiny").build_program()
        assert [i.uid for i in alone.instructions()] \
            == [i.uid for i in again.instructions()]
        assert min(i.uid for i in again.instructions()) == 1

    def test_adapt_numbers_from_the_programs_largest_uid(self):
        workload = make_workload("treeadd.df", "tiny")
        program = workload.build_program()
        original = {i.uid for i in program.instructions()}
        profile = collect_profile(program, workload.build_heap)
        result = SSPPostPassTool().adapt(program, profile,
                                         heap_factory=workload.build_heap)
        assert result.adapted is not None
        added = {i.uid for i in result.program.instructions()} - original
        assert added and min(added) == max(original) + 1


_RUN_ALONE = """
import json, sys
from repro.runner import Runner, RunSpec
spec = RunSpec.from_key(json.loads(sys.argv[1]))
result = Runner(cache=None, service=None).run_one(spec)
assert result.ok, result.error
print(json.dumps(result.stats_dict, sort_keys=True))
"""


def test_tiny_matrix_identical_alone_and_together():
    """All 28 tiny specs run in this process (after whatever the suite
    built) give the bytes each gives alone in a fresh interpreter."""
    specs = [RunSpec.create(name, scale="tiny", model=model,
                            variant=variant)
             for name in PAPER_ORDER
             for model in ("inorder", "ooo")
             for variant in ("base", "ssp")]
    together = Runner(cache=None, service=None).run(specs)
    diverged = []
    # Two fresh interpreters at a time.
    for pair in (range(i, min(i + 2, len(specs)))
                 for i in range(0, len(specs), 2)):
        procs = {j: subprocess.Popen(
            [sys.executable, "-c", _RUN_ALONE, json.dumps(specs[j].key())],
            env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) for j in pair}
        for j, proc in procs.items():
            out, err = proc.communicate(timeout=180)
            assert proc.returncode == 0, err
            alone = out.strip().splitlines()[-1]
            if alone != json.dumps(together[j].stats_dict, sort_keys=True):
                diverged.append(specs[j].label())
    assert diverged == []


_CHECKPOINT_AFTER_OTHERS = """
import sys
from repro.resilience import CheckpointStore
from repro.runner import RunSpec
from repro.runner.worker import artifacts_for, config_for
from repro.sim.machine import make_simulator
from repro.workloads import make_workload

for name in ("em3d", "health", "mst"):
    make_workload(name, "tiny").build_program()
spec = RunSpec.create("mcf", scale="tiny", model="inorder", variant="ssp")
artifacts = artifacts_for(spec)
program, workload = artifacts.run_inputs(spec.variant)
sim = make_simulator(program, workload.build_heap(), spec.model,
                     config=config_for(spec, artifacts),
                     spawning=spec.effective_spawning,
                     max_cycles=spec.max_cycles)


def stop(running):
    CheckpointStore(root=sys.argv[1]).save(
        spec.content_hash(), {"state": running.snapshot()},
        cycle=running.cycle, label=spec.label())
    raise SystemExit(0)


sim.run(checkpoint_every=2000, on_checkpoint=stop)
raise AssertionError("the run ended before its first checkpoint")
"""

_RESUME = """
import json, sys
from repro.runner import RunSpec, WorkerTask, execute_task
spec = RunSpec.create("mcf", scale="tiny", model="inorder", variant="ssp")
payload = execute_task(WorkerTask(spec=spec, resume=True,
                                  checkpoint_root=sys.argv[1]))
print(json.dumps({"resumed": payload["resilience"]["resumed_from_cycle"],
                  "stats": payload["stats"]}, sort_keys=True))
"""


def test_resume_across_build_histories_is_exact(tmp_path):
    """A run checkpointed in an interpreter that first built other
    workloads, resumed in a fresh one, equals an uninterrupted run."""
    root = str(tmp_path / "ckpt")
    subprocess.run([sys.executable, "-c", _CHECKPOINT_AFTER_OTHERS, root],
                   env=ENV, check=True, timeout=180)
    resumed = json.loads(_fresh_python(_RESUME, root))
    assert resumed["resumed"] and resumed["resumed"] > 0
    spec = RunSpec.create("mcf", scale="tiny", model="inorder",
                          variant="ssp")
    golden = Runner(cache=None, service=None).run_one(spec).stats_dict
    assert json.dumps(resumed["stats"], sort_keys=True) \
        == json.dumps(golden, sort_keys=True)
