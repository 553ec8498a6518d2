"""Profile once: the in-order profiling run is the only run of the
original binary.

``collect_profile`` takes execution counts, indirect-call targets and the
verify's reference run from its one ``InOrderSimulator`` run, which must
report exactly what a ``FunctionalInterpreter`` run reports.  The runner
serves a plain ``inorder/base`` spec from that same run, so a plain
batch simulates each original binary once; everything else still
simulates.
"""

from __future__ import annotations

import json

import pytest

from repro.check.fuzz import FuzzWorkload
from repro.codegen.verify import ReferenceRun, _architectural_outcome
from repro.isa import FunctionBuilder, Heap, Program
from repro.isa.instructions import OP_CALL_INDIRECT, Instruction
from repro.isa.interp import FunctionalInterpreter
from repro.profiling import collect_profile
from repro.runner import (
    Runner,
    RunSpec,
    WorkerTask,
    clear_artifact_cache,
    execute_spec,
    execute_task,
)
from repro.runner import worker
from repro.service import ServiceClient, ServiceConfig
from repro.sim.config import inorder_config
from repro.sim.inorder import InOrderSimulator
from repro.sim.machine import make_config
from repro.sim.ooo import OOOSimulator
from repro.workloads import PAPER_ORDER, make_workload

from test_isa_decoded_interp import _dispatch_program
from test_sim_fastpath import FUZZ_SEEDS


def _functional(program, heap_factory):
    """What the functional profiler records: counts, indirect targets,
    and the reference run."""
    heap = heap_factory()
    initial = heap.digest()
    interp = FunctionalInterpreter(program, heap)
    state = interp.run()
    reference = ReferenceRun(
        heap_digest=initial, outcome=_architectural_outcome(state),
        final_digest=heap.digest(),
        decode_version=program._decode_version)
    return interp, reference


def _assert_profiles_agree(program, heap_factory):
    profile = collect_profile(program, heap_factory)
    interp, reference = _functional(program, heap_factory)
    assert profile.exec_counts == interp.exec_counts
    assert profile.indirect_targets == interp.indirect_targets
    assert list(profile.indirect_targets) == list(interp.indirect_targets)
    for site, targets in interp.indirect_targets.items():
        assert list(profile.indirect_targets[site]) == list(targets)
    return profile, reference


class TestCountsMatchTheInterpreter:
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_paper_workloads(self, name, scale):
        workload = make_workload(name, scale)
        _assert_profiles_agree(workload.build_program(),
                               workload.build_heap)

    def test_fuzz_corpus(self):
        for seed in FUZZ_SEEDS:
            workload = FuzzWorkload(seed)
            _assert_profiles_agree(workload.build_program(),
                                   workload.build_heap)

    def test_indirect_calls(self):
        program, heap_factory = _dispatch_program([2, 0, 2, 1, 0, 2])
        profile, _ = _assert_profiles_agree(program, heap_factory)
        (targets,) = profile.indirect_targets.values()
        assert list(targets.items()) == [("f2", 3), ("f0", 2), ("f1", 1)]

    def test_squashed_indirect_call_is_not_recorded(self):
        """A predicated-off call never happens, so neither profiler
        records its target; only the executed call counts."""
        program = Program(entry="main")
        callee = FunctionBuilder(program.add_function("f0"))
        callee.ret(callee.mov_imm(1))
        main = FunctionBuilder(program.add_function("main"))
        main.mov_imm(0, dest="r50")
        never = main.cmp("ne", "r50", "r50")
        main.emit(Instruction(op=OP_CALL_INDIRECT, srcs=("r50",),
                              pred=never))
        main.call_indirect("r50")
        main.halt()
        program.finalize()
        profile, _ = _assert_profiles_agree(program,
                                            lambda: Heap(1 << 12))
        assert sorted(n for t in profile.indirect_targets.values()
                      for n in t.values()) == [1]

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_reference_run_is_the_functional_one(self, name):
        workload = make_workload(name, "tiny")
        profile, reference = _assert_profiles_agree(
            workload.build_program(), workload.build_heap)
        assert profile.reference == reference


# -- the runner serves inorder/base from the profiling run ---------------------------


@pytest.fixture
def fresh_artifacts():
    clear_artifact_cache()
    yield
    clear_artifact_cache()


@pytest.fixture
def runs(monkeypatch, fresh_artifacts):
    """Count simulator runs and profiling runs."""
    counts = {"sim": 0, "profile": 0}
    for cls in (InOrderSimulator, OOOSimulator):
        def counted(self, *args, _run=cls.run, **kwargs):
            counts["sim"] += 1
            return _run(self, *args, **kwargs)
        monkeypatch.setattr(cls, "run", counted)
    profile = worker.collect_profile

    def counted_profile(*args, **kwargs):
        counts["profile"] += 1
        return profile(*args, **kwargs)
    monkeypatch.setattr(worker, "collect_profile", counted_profile)
    return counts


def _dump(payload):
    return json.dumps(payload["stats"])


def test_profile_config_is_the_base_spec_config():
    assert make_config("inorder") == inorder_config()


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_plain_base_is_byte_identical_to_a_simulation(name, runs):
    spec = RunSpec.create(name, scale="tiny")
    served = execute_spec(spec)
    assert runs == {"sim": 1, "profile": 1}
    # A wall-clock budget makes the task non-plain: it simulates.
    forced = execute_task(WorkerTask(spec=spec, deadline=3600.0))
    assert runs == {"sim": 2, "profile": 1}
    assert _dump(served) == _dump(forced)
    assert served["resilience"] == forced["resilience"]
    assert "metrics" not in served


def _non_plain(tmp_path):
    spec = RunSpec.create("mcf", scale="tiny")
    return [
        ("override", WorkerTask(spec=RunSpec.create(
            "mcf", scale="tiny",
            config_overrides={"memory_latency": 200}))),
        ("max_cycles", WorkerTask(spec=RunSpec.create(
            "mcf", scale="tiny", max_cycles=10_000_000))),
        ("spawning", WorkerTask(spec=RunSpec.create(
            "mcf", scale="tiny", spawning=True))),
        ("resume", WorkerTask(spec=spec, resume=True,
                              checkpoint_root=str(tmp_path / "ckpt"))),
        ("checkpoint", WorkerTask(spec=spec, checkpoint_every=5_000,
                                  checkpoint_root=str(tmp_path / "ckpt"))),
        ("deadline", WorkerTask(spec=spec, deadline=3600.0)),
        ("rss_budget", WorkerTask(spec=spec, rss_budget_mb=1e6)),
    ]


def test_non_plain_specs_still_simulate(runs, tmp_path):
    execute_spec(RunSpec.create("mcf", scale="tiny"))
    assert runs == {"sim": 1, "profile": 1}
    for label, task in _non_plain(tmp_path):
        before = runs["sim"]
        execute_task(task)
        assert runs["sim"] == before + 1, label
    assert runs["profile"] == 1


def test_failed_output_check_is_not_served(runs, monkeypatch):
    """A profiling run whose output check fails keeps nothing, so the
    spec simulates and fails its own check as it always did."""
    spec = RunSpec.create("mcf", scale="tiny")
    artifacts = worker.artifacts_for(spec)

    def wrong(heap):
        raise AssertionError("mcf: expected 1, got 2")
    monkeypatch.setattr(artifacts.workload, "check_output", wrong)
    with pytest.raises(AssertionError, match="expected 1"):
        execute_spec(spec)
    assert runs == {"sim": 2, "profile": 1}


def test_served_document_is_a_copy(fresh_artifacts):
    spec = RunSpec.create("mcf", scale="tiny")
    first = execute_spec(spec)
    first["stats"]["cycles"] = -1
    assert execute_spec(spec)["stats"]["cycles"] > 0


def test_plain_batch_simulates_each_original_once(runs):
    specs = [RunSpec.create(name, scale="tiny", model=model,
                            variant=variant)
             for name in PAPER_ORDER for model in ("inorder", "ooo")
             for variant in ("base", "ssp")]
    assert len({spec.content_hash() for spec in specs}) == 28
    results = Runner(jobs=1, cache=None, service=None).run(specs * 2)
    assert all(result.ok for result in results)
    assert runs["profile"] == 7
    assert runs["sim"] - runs["profile"] == 21


def test_leased_base_job_is_served_by_the_profile(runs, tmp_path):
    """A leased job's task carries the lease heartbeat, which does not
    change the result: through the inline worker, a plain inorder/base
    job after the same workload's inorder/ssp job simulates nothing."""
    client = ServiceClient(config=ServiceConfig(root=tmp_path / "svc"))
    (ssp,) = client.run_batch([RunSpec.create("mcf", scale="tiny",
                                              variant="ssp")])
    assert ssp.ok and runs == {"sim": 2, "profile": 1}
    (base,) = client.run_batch([RunSpec.create("mcf", scale="tiny")])
    assert base.ok and not base.cached
    assert runs == {"sim": 2, "profile": 1}
