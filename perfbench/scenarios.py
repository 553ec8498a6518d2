"""The three workloads.

Each workload has a cold pass (caches and the artifact memo empty) and
a warm pass (the same batch again, against what the cold pass left).
``reset`` empties the caches untimed before each cold pass.  A pass
returns one :data:`checks.Op` per operation; with a recorder it is the
traced flavour, with a span around each layer call.
"""

from __future__ import annotations

import contextlib
import random
import shutil
from pathlib import Path
from typing import List, Optional

from repro.profiling import collect_profile
from repro.runner import ResultCache, Runner, RunSpec, clear_artifact_cache
from repro.service import ServiceClient, ServiceConfig
from repro.sim.machine import make_simulator
from repro.tool import SSPPostPassTool
from repro.workloads import PAPER_ORDER, make_workload

from checks import Op
from layers import Collect, record_adapt, traced_task
from spans import EpochTracer, Recorder, TimedBackend, clock

MODELS = ("inorder", "ooo")
VARIANTS = ("base", "ssp")


def matrix_specs(scale: str) -> List[RunSpec]:
    """7 kernels x {inorder, ooo} x {base, ssp}."""
    return [RunSpec.create(kernel, scale=scale, model=model, variant=variant)
            for kernel in PAPER_ORDER for model in MODELS
            for variant in VARIANTS]


def _span(rec: Optional[Recorder], name: str):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def _ops(specs, results) -> List[Op]:
    return [(spec.label(), r.stats_dict if r.ok else None, r.error)
            for spec, r in zip(specs, results)]


class Scenario:
    #: Scale of the kernels the workload builds (and set-up builds).
    scale = "tiny"
    #: Warm passes after each cold pass.
    warm_repeats = 10
    #: Untimed pass pairs first, so one-time process set-up (the cache's
    #: source digest, the first fork) is not in a timed pass.
    warmup_pairs = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def reset(self) -> None:
        clear_artifact_cache()

    def cold(self, rec: Optional[Recorder]) -> List[Op]:
        raise NotImplementedError

    def warm(self, rec: Optional[Recorder]) -> List[Op]:
        raise NotImplementedError

    def finish(self) -> List[Op]:
        """Untimed operations at the end of the run."""
        return []

    def fastest_cold(self, colds: List[float]) -> float:
        """``wall_s`` from the run's cold-pass wall times: the fastest
        pass, the one other tenants of the host slowed least."""
        return min(colds)


class BatchTiny(Scenario):
    """The tiny matrix, every spec duplicated, through ``Runner`` with
    two pool workers on a private result cache."""

    jobs = 2

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.specs = matrix_specs("tiny") * 2
        random.Random(seed).shuffle(self.specs)
        self.cache_root = work / "cache"

    def reset(self) -> None:
        super().reset()
        shutil.rmtree(self.cache_root, ignore_errors=True)

    def cold(self, rec: Optional[Recorder]) -> List[Op]:
        if rec is None:
            runner = Runner(jobs=self.jobs, service=None,
                            cache=ResultCache(root=self.cache_root))
            return _ops(self.specs, runner.run(self.specs))
        with rec.span("runner.run") as parent:
            cache = TimedBackend(ResultCache(root=self.cache_root), rec,
                                 "runner.cache")
            runner = Runner(jobs=self.jobs, service=None, cache=cache,
                            task_fn=traced_task)
            results = runner.run(self.specs)
        executed = {id(r): r for r in results if r.ok and not r.cached}
        builds = set()
        for result in executed.values():
            exported = result.metrics["bench"]
            rec.graft(exported, parent)
            builds.add((exported["pid"], result.spec.workload))
        rec.count("runner.artifact_builds", len(builds))
        counters = cache.counters_snapshot()
        rec.count("runner.cache.hits", counters["hits"])
        rec.count("runner.cache.lookups",
                  counters["hits"] + counters["misses"])
        return _ops(self.specs, results)

    warm = cold


class ServiceTiny(Scenario):
    """The tiny batch through the service: submit, wait with the inline
    worker, fetch; the warm pass is a second client resubmitting."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.specs = matrix_specs("tiny") * 2
        random.Random(seed).shuffle(self.specs)
        self.root = work / "service"

    def reset(self) -> None:
        super().reset()
        shutil.rmtree(self.root, ignore_errors=True)

    def cold(self, rec: Optional[Recorder]) -> List[Op]:
        config = ServiceConfig(root=self.root)
        backend = config.make_backend()
        if rec is None:
            client = ServiceClient(backend=backend, config=config)
            batch = client.submit(self.specs)
            client.wait(batch)
            return self._ops(client.fetch(batch))
        task = Collect()
        client = ServiceClient(
            backend=TimedBackend(backend, rec, "service.backend"),
            config=config)
        with rec.span("service.submit"):
            batch = client.submit(self.specs)
        with rec.span("service.wait") as parent:
            client.wait(batch, task_fn=task)
        with rec.span("service.fetch"):
            results = client.fetch(batch)
        for exported in task.exports:
            rec.graft(exported, parent)
        rec.count("service.submitted", len(self.specs))
        rec.count("service.executed", len(task.exports))
        return self._ops(results)

    warm = cold

    def _ops(self, results) -> List[Op]:
        by_hash = {r.spec.content_hash(): r for r in results}
        return _ops(self.specs,
                    [by_hash[s.content_hash()] for s in self.specs])


class PostpassDefault(Scenario):
    """The tool as a compiler: ``collect_profile`` + ``adapt`` for each
    kernel, its heap laid out from the seed.  The warm pass re-adapts
    from the profiles the cold pass collected."""

    scale = "default"
    warm_repeats = 1
    warmup_pairs = 0

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.kernels = list(PAPER_ORDER)
        random.Random(seed).shuffle(self.kernels)
        self.built = {}
        self.kernel_walls = {name: [] for name in self.kernels}

    def reset(self) -> None:
        super().reset()
        self.built = {}

    def cold(self, rec: Optional[Recorder]) -> List[Op]:
        ops = []
        for name in self.kernels:
            start = clock()
            try:
                with _span(rec, "workloads.build"):
                    workload = type(make_workload(name, self.scale))(
                        scale=self.scale, seed=self.seed)
                    program = workload.build_program()
                with _span(rec, "profiling.collect"):
                    profile = collect_profile(program, workload.build_heap)
                if rec is not None:
                    rec.fact(name, "profiling.baseline_cycles",
                             profile.baseline_cycles)
                result = self._adapt(rec, name, workload, program, profile)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                ops.append((f"adapt/{name}", None, repr(exc)))
                continue
            self.built[name] = (workload, program, profile, result)
            self.kernel_walls[name].append(clock() - start)
            ops.append((f"adapt/{name}", _fingerprint(profile, result), None))
        return ops

    def warm(self, rec: Optional[Recorder]) -> List[Op]:
        ops = []
        for name in self.kernels:
            if name not in self.built:
                continue
            workload, program, profile, _ = self.built[name]
            try:
                result = self._adapt(rec, name, workload, program, profile)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                ops.append((f"adapt/{name}", None, repr(exc)))
                continue
            ops.append((f"adapt/{name}", _fingerprint(profile, result), None))
        return ops

    def fastest_cold(self, colds: List[float]) -> float:
        """Each kernel's fastest cold build + profile + adapt, summed.

        The kernels are independent and take about half a second each,
        so the fastest of each dodges more of the host's slow phases
        than the fastest whole pass (3-4 s, and few of them in a run).
        """
        return sum(min(walls) for walls in self.kernel_walls.values()
                   if walls)

    def _adapt(self, rec, name, workload, program, profile):
        if rec is None:
            return SSPPostPassTool().adapt(
                program, profile, heap_factory=workload.build_heap)
        tracer = EpochTracer()
        start = clock()
        result = SSPPostPassTool(tracer=tracer).adapt(
            program, profile, heap_factory=workload.build_heap)
        record_adapt(rec, tracer, 0, start, name, result)
        return result

    def finish(self) -> List[Op]:
        """Simulate every adapted binary on both models, untimed: the
        kernel output check, and the speedups the tool delivered."""
        ops = []
        for name in self.kernels:
            if name not in self.built:
                continue
            workload, program, _, result = self.built[name]
            adapted = result.adapted.program if result.adapted else program
            for model in MODELS:
                for variant in VARIANTS:
                    key = f"{name}/{self.scale}/{model}/{variant}"
                    try:
                        sim = make_simulator(
                            adapted if variant == "ssp" else program,
                            workload.build_heap(), model,
                            spawning=variant == "ssp")
                        stats = sim.run()
                        workload.check_output(sim.heap)
                    except Exception as exc:  # noqa: BLE001
                        ops.append((key, None, repr(exc)))
                        continue
                    ops.append((key, stats.to_dict(), None))
        return ops


def _fingerprint(profile, result) -> dict:
    """What one adaptation produced, free of process-local uids."""
    return {
        "baseline_cycles": profile.baseline_cycles,
        "miss_cycles": profile.total_miss_cycles(),
        "delinquent_loads": len(result.delinquent_uids),
        "adapted_loads": result.guard.adapted_loads,
        "rollbacks": len(result.guard.rollbacks),
        "kinds": result.kinds(),
        "table2": result.table2_row(),
    }


SCENARIOS = {
    "postpass-default": PostpassDefault,
    "batch-tiny": BatchTiny,
    "service-tiny": ServiceTiny,
}
