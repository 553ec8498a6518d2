"""Resilience layer: checkpoint/resume, the watchdog, the ladder.

Covers the contracts README promises: a snapshot restored into a
fresh simulator finishes with byte-identical statistics; a SIGKILLed run
resumes from its last good checkpoint; flipping any byte of a checkpoint
file makes ``restore`` refuse it; hung workers are killed by the
watchdog and their spec still completes; resource blowouts walk the
degradation ladder down to the unadapted binary instead of failing.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.guard import injecting
from repro.guard.errors import CheckpointError
from repro.resilience import (
    LADDER,
    STEP_BASIC,
    STEP_FULL,
    STEP_TOP1,
    STEP_UNADAPTED,
    CheckpointStore,
    ResilienceConfig,
    degrade_spec,
    ladder_applies,
    ladder_steps,
    next_step,
)
from repro.runner import ResultCache, Runner, RunSpec, WorkerTask, execute_task
from repro.runner.worker import artifacts_for, config_for
from repro.sim.machine import make_simulator

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _fresh_sim(spec: RunSpec):
    """A simulator (and its heap-owning workload) built from the spec.

    Reuses the per-process artifact memo, so every simulator built here
    for the same spec shares one program."""
    artifacts = artifacts_for(spec)
    program, workload = artifacts.run_inputs(spec.variant)
    sim = make_simulator(program, workload.build_heap(), spec.model,
                         config=config_for(spec, artifacts),
                         spawning=spec.effective_spawning,
                         max_cycles=spec.max_cycles)
    return sim, workload


# ---------------------------------------------------------------------------
# checkpoint round trip: snapshot -> restore -> identical statistics
# ---------------------------------------------------------------------------

ROUNDTRIP_CASES = [
    ("mcf", "inorder", "base"),
    ("mst", "inorder", "base"),
    ("treeadd.df", "inorder", "base"),
    ("mcf", "inorder", "ssp"),
    ("mcf", "ooo", "base"),
    ("mst", "ooo", "base"),
    ("treeadd.df", "ooo", "base"),
    ("treeadd.df", "ooo", "ssp"),
]


@pytest.mark.parametrize("workload,model,variant", ROUNDTRIP_CASES)
def test_checkpoint_roundtrip_is_lossless(workload, model, variant):
    spec = RunSpec.create(workload, scale="tiny", model=model,
                          variant=variant)
    golden_sim, _ = _fresh_sim(spec)
    golden = golden_sim.run()
    assert golden.cycles > 0

    # A mid-run snapshot must not perturb the run it interrupts.  The
    # snapshot aliases live simulator state, so it is pickled at capture
    # time — exactly what the checkpoint file format does.
    snapped_sim, _ = _fresh_sim(spec)
    snaps = []

    def grab(running):
        if not snaps:
            snaps.append((running.cycle,
                          pickle.dumps(running.snapshot())))

    interval = max(1, golden.cycles // 3)
    stats = snapped_sim.run(checkpoint_every=interval, on_checkpoint=grab)
    assert snaps, "checkpoint callback never fired"
    assert stats.equal_to(golden)

    # ... and restoring it into a *fresh* simulator must finish the run
    # with byte-identical statistics and a correct final heap.
    cycle, frozen = snaps[0]
    snapshot = pickle.loads(frozen)
    assert 0 < cycle < golden.cycles
    resumed_sim, resumed_workload = _fresh_sim(spec)
    resumed_sim.restore(snapshot)
    resumed = resumed_sim.run()
    assert resumed.equal_to(golden), (
        f"{spec.label()}: stats diverged after restore at cycle {cycle}")
    if variant in ("base", "ssp"):
        resumed_workload.check_output(resumed_sim.heap)


@pytest.mark.parametrize("model", ["inorder", "ooo"])
def test_fuzz_kernel_checkpoint_roundtrip(model):
    # Randomly generated pointer-chasing kernels (the pipeline fuzzer's
    # workloads) must round-trip too, not just the curated benchmarks.
    from repro.check.fuzz import FuzzWorkload

    for seed in (11, 42, 20020617):
        workload = FuzzWorkload(seed)
        program = workload.build_program()
        golden = make_simulator(program, workload.build_heap(), model,
                                spawning=False).run()
        sim = make_simulator(program, workload.build_heap(), model,
                             spawning=False)
        snaps = []
        sim.run(checkpoint_every=max(1, golden.cycles // 2),
                on_checkpoint=lambda s: snaps.append(
                    pickle.dumps(s.snapshot())) if not snaps else None)
        assert snaps, f"seed {seed}: no checkpoint fired"
        resumed_sim = make_simulator(program, workload.build_heap(), model,
                                     spawning=False)
        resumed_sim.restore(pickle.loads(snaps[0]))
        resumed = resumed_sim.run()
        assert resumed.equal_to(golden), f"seed {seed} diverged"
        workload.check_output(resumed_sim.heap)


def test_execute_task_resumes_from_saved_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
    spec = RunSpec.create("mst", scale="tiny", model="inorder",
                          variant="base")
    golden = execute_task(WorkerTask(spec=spec))

    # Plant a genuine mid-run checkpoint under the spec's key, then ask
    # the worker to resume: it must pick the checkpoint up, finish from
    # there, and report identical statistics.
    sim, _ = _fresh_sim(spec)
    snaps = []

    def grab(running):
        if not snaps:
            snaps.append((running.cycle,
                          pickle.dumps(running.snapshot())))

    sim.run(checkpoint_every=max(1, golden["stats"]["cycles"] // 2),
            on_checkpoint=grab)
    cycle, frozen = snaps[0]
    CheckpointStore().save(spec.content_hash(),
                           {"state": pickle.loads(frozen)},
                           cycle=cycle, label=spec.label())

    payload = execute_task(WorkerTask(spec=spec, resume=True))
    assert payload["resilience"]["resumed_from_cycle"] == cycle
    assert payload["resilience"]["checkpoint_errors"] == []
    assert payload["stats"] == golden["stats"]


# ---------------------------------------------------------------------------
# kill -9 mid-run, then resume
# ---------------------------------------------------------------------------

_VICTIM = """
import json, sys
from repro.runner import RunSpec, WorkerTask, execute_task
spec = RunSpec.create("mcf", scale="tiny", model="inorder", variant="base")
mode = sys.argv[1]
task = WorkerTask(spec=spec)
if mode in ("checkpoint", "resume"):
    task.checkpoint_every = 2000
if mode == "resume":
    task.resume = True
payload = execute_task(task)
print(json.dumps({"stats": payload["stats"],
                  "resumed": payload["resilience"]["resumed_from_cycle"]},
                 sort_keys=True))
"""


def _run_victim(script: Path, mode: str, env: dict) -> dict:
    out = subprocess.run([sys.executable, str(script), mode], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_sigkilled_run_resumes_to_identical_stats(tmp_path):
    """SIGKILL an in-order mcf run mid-simulation; the resumed run must
    land on byte-identical SimStats to an uninterrupted one.

    Every run happens in its own fresh interpreter, as after a real
    crash."""
    script = tmp_path / "victim.py"
    script.write_text(_VICTIM, encoding="utf-8")
    ckpt_root = tmp_path / "ckpt"
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), REPRO_NO_CACHE="1",
               REPRO_CHECKPOINT_DIR=str(ckpt_root))

    golden = _run_victim(script, "plain", env)
    assert golden["resumed"] is None, \
        f"an uncheckpointed run resumed from cycle {golden['resumed']}"

    # Kill the checkpointing run as soon as its first checkpoint lands.
    proc = subprocess.Popen([sys.executable, str(script), "checkpoint"],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    try:
        while not list(ckpt_root.rglob("*.ckpt")):
            assert proc.poll() is None, \
                "run finished before a checkpoint could be observed"
            assert time.monotonic() < deadline, "no checkpoint appeared"
            time.sleep(0.002)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
    assert proc.returncode == -signal.SIGKILL
    assert list(ckpt_root.rglob("*.ckpt")), "checkpoint lost by the kill"

    checkpoints = sorted(str(path.relative_to(ckpt_root))
                         for path in ckpt_root.rglob("*.ckpt"))
    resumed = _run_victim(script, "resume", env)
    assert resumed["resumed"] is not None and resumed["resumed"] > 0, \
        f"resumed from cycle {resumed['resumed']!r}; checkpoints " \
        f"before the resume: {checkpoints}"
    differing = sorted(
        key for key in set(golden["stats"]) | set(resumed["stats"])
        if golden["stats"].get(key) != resumed["stats"].get(key))
    assert resumed["stats"] == golden["stats"], \
        f"resumed from cycle {resumed['resumed']}: stats differ " \
        f"at {differing}"
    # A completed run retires its checkpoints.
    assert not list(ckpt_root.rglob("*.ckpt"))


# A Runner whose forked local worker parks in a long sleep.  The worker
# reports its own pid through a file so the test outside can watch it die.
_ORPHAN_RUNNER = """
import os, sys, time
from repro.resilience import ResilienceConfig
from repro.runner import Runner, RunSpec

pid_file = sys.argv[1]

def task_fn(spec):
    tmp = pid_file + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(tmp, pid_file)
    time.sleep(600)
    return {"stats": {}}

config = ResilienceConfig(heartbeat_timeout=900.0)
Runner(jobs=1, cache=None, service=None, task_fn=task_fn,
       resilience=config).run([RunSpec(workload="orphan")])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="worker pdeathsig is Linux-only")
def test_worker_dies_when_runner_is_sigkilled(tmp_path):
    """A SIGKILLed Runner must not leave an orphaned local worker.

    Without PR_SET_PDEATHSIG the orphan keeps simulating and eventually
    *retires the checkpoints* the killed run left for its replacement —
    ``daemon=True`` only covers clean interpreter exits."""
    script = tmp_path / "runner.py"
    script.write_text(_ORPHAN_RUNNER, encoding="utf-8")
    pid_file = tmp_path / "worker.pid"
    # The killed Runner cannot remove its private queue root: keep it
    # under tmp_path.
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), TMPDIR=str(tmp_path))
    proc = subprocess.Popen([sys.executable, str(script), str(pid_file)],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert proc.poll() is None, "runner died before launching"
            assert time.monotonic() < deadline, "worker never started"
            time.sleep(0.01)
        worker_pid = int(pid_file.read_text())
        os.kill(worker_pid, 0)  # alive (or this raises)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.kill(worker_pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            os.kill(worker_pid, signal.SIGKILL)  # don't leak it
            pytest.fail("worker survived its runner's SIGKILL")
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()


# ---------------------------------------------------------------------------
# checkpoint integrity: any damaged byte is refused
# ---------------------------------------------------------------------------

def test_corrupting_any_byte_is_refused(tmp_path):
    store = CheckpointStore(root=tmp_path, salt="test")
    store.save("key", {"state": {"cycle": 7, "regs": [1, 2, 3]}},
               cycle=7, label="unit")
    path = store.path_for("key")
    pristine = path.read_bytes()
    for offset in range(len(pristine)):
        damaged = bytearray(pristine)
        damaged[offset] ^= 0xFF
        path.write_bytes(bytes(damaged))
        with pytest.raises(CheckpointError):
            store.read_file(path)
    path.write_bytes(pristine)
    payload, header = store.load("key")
    assert payload == {"state": {"cycle": 7, "regs": [1, 2, 3]}}
    assert header["cycle"] == 7


def test_truncation_and_junk_are_refused(tmp_path):
    store = CheckpointStore(root=tmp_path, salt="test")
    store.save("key", {"v": 1}, cycle=1)
    path = store.path_for("key")
    data = path.read_bytes()
    for bad in (b"", data[:10], data[:-1], b"junk" * 20):
        path.write_bytes(bad)
        with pytest.raises(CheckpointError):
            store.read_file(path)


def test_corrupt_current_falls_back_to_previous_generation(tmp_path):
    store = CheckpointStore(root=tmp_path, salt="test")
    store.save("key", {"gen": 1}, cycle=10)
    store.save("key", {"gen": 2}, cycle=20)  # rotates gen 1 to .prev
    path = store.path_for("key")
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    errors = []
    payload, header = store.load("key", errors)
    assert payload == {"gen": 1} and header["cycle"] == 10
    assert errors, "the damaged current generation must be diagnosed"


def test_checkpoint_corrupt_injection_forces_fresh_start(tmp_path):
    # With only one generation on disk, the chaos site leaves nothing to
    # fall back to: load reports the damage and returns None (fresh run).
    store = CheckpointStore(root=tmp_path, salt="test")
    store.save("key", {"v": 1}, cycle=5)
    errors = []
    with injecting("checkpoint.corrupt"):
        loaded = store.load("key", errors)
    assert loaded is None
    assert errors


def test_wrong_code_version_is_refused(tmp_path):
    writer = CheckpointStore(root=tmp_path, salt="v1")
    writer.save("key", {"v": 1}, cycle=5)
    reader = CheckpointStore(root=tmp_path, salt="v2")
    with pytest.raises(CheckpointError):
        reader.read_file(writer.path_for("key"))


def test_list_runs_and_discard(tmp_path):
    store = CheckpointStore(root=tmp_path, salt="test")
    assert store.list_runs() == []
    store.save("abc123", {"v": 1}, cycle=4096, label="mcf/tiny")
    runs = store.list_runs()
    assert len(runs) == 1
    entry = runs[0]
    assert entry["valid"] and entry["key"] == "abc123"
    assert entry["cycle"] == 4096 and entry["label"] == "mcf/tiny"
    store.discard("abc123")
    assert store.list_runs() == []


# ---------------------------------------------------------------------------
# the engine's failure policy: watchdog, degradation ladder, terminal result
# ---------------------------------------------------------------------------

def test_watchdog_kills_hung_worker_and_its_spec_completes():
    spec = RunSpec.create("mcf", scale="tiny", model="inorder",
                          variant="base")
    config = ResilienceConfig(heartbeat_timeout=1.0)
    runner = Runner(jobs=2, cache=None, resilience=config)
    # Two hangs: the watchdog kills both hung workers, the queue
    # redelivers the job each time, and its third execution (the fault
    # plan exhausted) completes the run.
    with injecting("worker.hang:1:2"):
        result = runner.run_one(spec)
    assert result.ok, result.error
    meta = result.metrics["resilience"]
    assert meta["watchdog_kills"] >= 1
    assert meta["ladder_step"] == STEP_FULL
    counters = runner.telemetry.snapshot()
    assert counters["watchdog_kills"] >= 1
    assert counters["poisoned"] == 0


def test_oom_walks_the_ladder_down_to_unadapted():
    spec = RunSpec.create("mcf", scale="tiny", model="inorder",
                          variant="ssp")
    config = ResilienceConfig()
    runner = Runner(jobs=1, cache=None, resilience=config)
    # Three OOMs in a row: full -> basic -> top1 -> unadapted, where the
    # exhausted fault plan finally lets the run complete.
    with injecting("worker.oom:1:3"):
        result = runner.run_one(spec)
    assert result.ok, result.error
    meta = result.metrics["resilience"]
    assert meta["ladder_step"] == STEP_UNADAPTED
    assert meta["executed_spec"]["variant"] == "base"
    counters = runner.telemetry.snapshot()
    assert counters["descents"] == 3
    assert counters["poisoned"] == 0


def test_unrecoverable_spec_is_skipped_with_diagnostic():
    spec = RunSpec.create("mcf", scale="tiny", model="inorder",
                          variant="base")
    runner = Runner(jobs=1, cache=None, retries=2,
                    resilience=ResilienceConfig())
    # base has no ladder to descend: every attempt dies of OOM, and
    # after retries + 1 of them the spec ends as one failed result.
    with injecting("worker.oom"):
        result = runner.run_one(spec)
    assert not result.ok
    assert "MemoryError" in result.error and "worker.oom" in result.error
    assert result.attempts == 3
    assert runner.telemetry.snapshot()["failures"] == 1


# ---------------------------------------------------------------------------
# degradation ladder unit behaviour
# ---------------------------------------------------------------------------

def test_ladder_steps_per_variant():
    ssp = RunSpec.create("mcf", scale="tiny", variant="ssp")
    hand = RunSpec.create("mcf.hand", scale="tiny", variant="hand")
    base = RunSpec.create("mcf", scale="tiny", variant="base")
    assert ladder_steps(ssp) == LADDER
    assert ladder_steps(hand) == (STEP_FULL, STEP_UNADAPTED)
    assert ladder_steps(base) == (STEP_FULL,)
    assert ladder_applies(ssp) and ladder_applies(hand)
    assert not ladder_applies(base)
    assert next_step(STEP_FULL) == STEP_BASIC
    assert next_step(STEP_TOP1) == STEP_UNADAPTED
    assert next_step(STEP_UNADAPTED) is None


def test_degraded_specs_have_distinct_content_hashes():
    ssp = RunSpec.create("mcf", scale="tiny", variant="ssp")
    basic = degrade_spec(ssp, STEP_BASIC)
    top1 = degrade_spec(ssp, STEP_TOP1)
    unadapted = degrade_spec(ssp, STEP_UNADAPTED)
    assert degrade_spec(ssp, STEP_FULL) is ssp
    assert dict(basic.tool_options)["disable_chaining"] is True
    assert dict(top1.tool_options)["max_delinquent_loads"] == 1
    assert unadapted.variant == "base"
    assert not unadapted.effective_spawning
    hashes = {s.content_hash() for s in (ssp, basic, top1, unadapted)}
    assert len(hashes) == 4


def test_degrade_preserves_existing_tool_options():
    ssp = RunSpec.create("mcf", scale="tiny", variant="ssp",
                         tool_options={"max_slice_size": 24})
    basic = degrade_spec(ssp, STEP_BASIC)
    options = dict(basic.tool_options)
    assert options["max_slice_size"] == 24
    assert options["disable_chaining"] is True


# ---------------------------------------------------------------------------
# crash-safe result cache
# ---------------------------------------------------------------------------

def test_cache_put_is_locked_and_clear_removes_locks(tmp_path):
    cache = ResultCache(root=tmp_path, salt="test")
    spec = RunSpec.create("mcf", scale="tiny")
    path = cache.put(spec, {"cycles": 123})
    lock = path.with_name(path.name + ".lock")
    assert lock.exists(), "put() must leave its advisory lock file"
    assert cache.get(spec)["stats"] == {"cycles": 123}
    cache.clear()
    assert not path.exists() and not lock.exists()


def test_cache_put_leaves_no_temp_files(tmp_path):
    cache = ResultCache(root=tmp_path, salt="test")
    spec = RunSpec.create("mcf", scale="tiny")
    cache.put(spec, {"cycles": 1})
    leftovers = [p for p in (tmp_path / "test").iterdir()
                 if ".tmp." in p.name]
    assert leftovers == []
